package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	canon "github.com/canon-dht/canon"
)

func TestParseKey(t *testing.T) {
	if v, err := parseKey("42"); err != nil || v != 42 {
		t.Errorf("parseKey(42) = %d, %v", v, err)
	}
	if _, err := parseKey("not-a-key"); err == nil {
		t.Error("bad key should error")
	}
	if _, err := parseKey("-1"); err == nil {
		t.Error("negative key should error")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing command should error")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"lookup"}); err == nil {
		t.Error("lookup without key should error")
	}
	if err := run([]string{"put", "1"}); err == nil {
		t.Error("put without value should error")
	}
	if err := run([]string{"get"}); err == nil {
		t.Error("get without key should error")
	}
	if err := run([]string{"get", "zzz"}); err == nil {
		t.Error("get with bad key should error")
	}
}

// TestEndToEnd drives canonctl against a real live node over TCP.
func TestEndToEnd(t *testing.T) {
	tr, err := canon.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := canon.NewLiveNode(canon.LiveConfig{
		Name:      "acme/web",
		RandomID:  true,
		Rand:      rand.New(rand.NewSource(1)),
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Join(ctx, ""); err != nil {
		t.Fatal(err)
	}
	addr := node.Info().Addr

	cases := [][]string{
		{"-node", addr, "ping"},
		{"-node", addr, "put", "77", "hello", "acme", "acme"},
		{"-node", addr, "get", "77"},
		{"-node", addr, "get", "-v", "77"},
		{"-node", addr, "-v", "put", "78", "again"},
		{"-node", addr, "lookup", "77", "acme"},
		{"-node", addr, "neighbors", "0"},
		{"-node", addr, "repair"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// Get of an absent key fails cleanly.
	if err := run([]string{"-node", addr, "get", "424242"}); err == nil {
		t.Error("get of absent key should error")
	}
	// Cross-domain put rejected.
	if err := run([]string{"-node", addr, "put", "1", "v", "globex"}); err == nil {
		t.Error("put outside the node's domain should error")
	}
}

func TestStatusCommand(t *testing.T) {
	tr, err := canon.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := canon.NewLiveNode(canon.LiveConfig{
		Name: "x", RandomID: true, Rand: rand.New(rand.NewSource(2)), Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := node.Join(ctx, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	if err := run([]string{"status", srv.URL}); err != nil {
		t.Errorf("status command: %v", err)
	}
	if err := run([]string{"status"}); err == nil {
		t.Error("status without URL should error")
	}
	if err := run([]string{"status", "http://127.0.0.1:1/"}); err == nil {
		t.Error("unreachable status URL should error")
	}
}

func TestPrintTraceAnsweredForOwner(t *testing.T) {
	tr := canon.RouteTrace{ID: "t", Key: 5, Spans: []canon.RouteSpan{
		{Hop: 0, ID: 1, Addr: "a", Level: 0},
		{Hop: 1, ID: 3, Addr: "c", Level: -1, Owner: true},
	}}
	var out strings.Builder
	printTrace(&out, canon.LiveInfo{ID: 4, Addr: "d"}, tr)
	if !strings.Contains(out.String(), "[answered for owner 4]") {
		t.Errorf("a list answer is not shown as one:\n%s", out.String())
	}
	out.Reset()
	printTrace(&out, canon.LiveInfo{ID: 3, Addr: "c"}, tr)
	if !strings.Contains(out.String(), "[owner]") {
		t.Errorf("the owner's answer is not shown as the owner's:\n%s", out.String())
	}
}
