package netnode_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/transport"
)

// TestMixedGeometryCluster runs a five-node cluster over real TCP once per
// routing geometry, plus once with the geometries themselves mixed across
// the cluster — geometry governs link construction only, so joins, lookups
// and storage must interoperate regardless of which geometry each side runs.
func TestMixedGeometryCluster(t *testing.T) {
	configs := []struct {
		name  string
		geoms []string
	}{
		{"crescendo", []string{"", "", "", "", ""}},
		{"kandy", []string{netnode.GeometryKandy, netnode.GeometryKandy, netnode.GeometryKandy, netnode.GeometryKandy, netnode.GeometryKandy}},
		{"cacophony", []string{netnode.GeometryCacophony, netnode.GeometryCacophony, netnode.GeometryCacophony, netnode.GeometryCacophony, netnode.GeometryCacophony}},
		{"mixed-geometries", []string{netnode.GeometryCrescendo, netnode.GeometryKandy, netnode.GeometryCacophony, netnode.GeometryKandy, netnode.GeometryCrescendo}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			runGeometryCluster(t, tc.geoms)
		})
	}
}

func runGeometryCluster(t *testing.T, geoms []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(23))

	var nodes []*netnode.Node
	for i, geom := range geoms {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n, err := netnode.New(netnode.Config{
			Name: fmt.Sprintf("mixed/n%d", i), RandomID: true, Rand: rng, Transport: tr,
			Geometry: geom,
		})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			// Join through the previous node, so in the mixed configuration
			// every join crosses a geometry boundary.
			contact = nodes[i-1].Info().Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatalf("node %d (%q) join: %v", i, geom, err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for r := 0; r < 4; r++ {
		for _, n := range nodes {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
		}
	}

	// A put through one node is readable through another, both ways.
	if err := nodes[1].Put(ctx, 4242, []byte("written-by-1"), "", ""); err != nil {
		t.Fatalf("put from node 1: %v", err)
	}
	got, err := nodes[4].Get(ctx, 4242)
	if err != nil || string(got) != "written-by-1" {
		t.Fatalf("get from node 4: %q, %v", got, err)
	}
	if err := nodes[0].Put(ctx, 7777, []byte("written-by-0"), "", ""); err != nil {
		t.Fatalf("put from node 0: %v", err)
	}
	got, err = nodes[3].Get(ctx, 7777)
	if err != nil || string(got) != "written-by-0" {
		t.Fatalf("get from node 3: %q, %v", got, err)
	}

	// Lookups resolve identically regardless of the asking node.
	for key := uint64(0); key < 50; key += 7 {
		a, err := nodes[0].Lookup(ctx, key, "")
		if err != nil {
			t.Fatalf("node 0 lookup of %d: %v", key, err)
		}
		b, err := nodes[1].Lookup(ctx, key, "")
		if err != nil {
			t.Fatalf("node 1 lookup of %d: %v", key, err)
		}
		if a.ID != b.ID {
			t.Errorf("key %d: node 0 says owner %d, node 1 says %d", key, a.ID, b.ID)
		}
	}
}
