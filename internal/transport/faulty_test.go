package transport_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// echoPair wires two Faulty endpoints on a fresh bus; the destination counts
// and echoes every request its handler actually executes.
func echoPair(seed int64, def transport.Faults) (src, dst *transport.Faulty, handled *int64) {
	bus := transport.NewBus()
	src = transport.NewFaulty(bus.Endpoint("src"), seed, def)
	dst = transport.NewFaulty(bus.Endpoint("dst"), seed+1000, transport.Faults{})
	var count int64
	dst.Serve(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		atomic.AddInt64(&count, 1)
		return msg, nil
	})
	return src, dst, &count
}

// schedule runs n calls through a fresh wrapper and records each outcome.
func schedule(t *testing.T, seed int64, def transport.Faults, n int) []bool {
	t.Helper()
	src, _, _ := echoPair(seed, def)
	out := make([]bool, n)
	for i := range out {
		msg, err := transport.NewMessage("echo", echoBody{Text: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		msg.Nonce = fmt.Sprintf("n-%d", i)
		_, err = src.Call(context.Background(), "dst", msg)
		out[i] = err == nil
	}
	return out
}

func TestFaultyDeterministicSchedule(t *testing.T) {
	def := transport.Faults{Drop: 0.3, Dup: 0.1}
	a := schedule(t, 42, def, 400)
	b := schedule(t, 42, def, 400)
	c := schedule(t, 43, def, 400)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
		if !a[i] {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("30% drop rate injected no drops in 400 calls")
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical schedule")
	}
}

func TestFaultyDelayDeterministicAndBounded(t *testing.T) {
	def := transport.Faults{DelayMin: 2 * time.Millisecond, DelayMax: 10 * time.Millisecond}
	src, _, _ := echoPair(7, def)
	msg, _ := transport.NewMessage("echo", nil)
	start := time.Now()
	if _, err := src.Call(context.Background(), "dst", msg); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("call returned after %v, below DelayMin", d)
	}
	if st := src.FaultStats(); st.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", st.Delayed)
	}
	// A canceled context must cut the injected delay short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.Call(ctx, "dst", msg); !errors.Is(err, context.Canceled) {
		t.Fatalf("delayed call under canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestFaultyPartitionHeals(t *testing.T) {
	src, _, handled := echoPair(1, transport.Faults{})
	msg, _ := transport.NewMessage("echo", nil)
	if _, err := src.Call(context.Background(), "dst", msg); err != nil {
		t.Fatalf("pre-partition call failed: %v", err)
	}
	src.Partition("dst")
	_, err := src.Call(context.Background(), "dst", msg)
	if !errors.Is(err, transport.ErrInjectedFault) || !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("partitioned call: err = %v, want injected+unreachable", err)
	}
	if got := atomic.LoadInt64(handled); got != 1 {
		t.Fatalf("handler ran %d times during partition, want 1 (pre-partition only)", got)
	}
	src.Heal("dst")
	if _, err := src.Call(context.Background(), "dst", msg); err != nil {
		t.Fatalf("post-heal call failed: %v", err)
	}
	if st := src.FaultStats(); st.Partitioned != 1 {
		t.Fatalf("Partitioned = %d, want 1", st.Partitioned)
	}
}

func TestFaultyDuplicateDoesNotDoubleApply(t *testing.T) {
	src, dst, handled := echoPair(5, transport.Faults{Dup: 1.0})
	msg, err := transport.NewMessage("echo", echoBody{Text: "v"})
	if err != nil {
		t.Fatal(err)
	}
	msg.Nonce = "logical-request-1"
	resp, err := src.Call(context.Background(), "dst", msg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != "echo" {
		t.Fatalf("resp type = %q", resp.Type)
	}
	if got := atomic.LoadInt64(handled); got != 1 {
		t.Fatalf("handler executed %d times for a duplicated request, want 1", got)
	}
	sst, dst2 := src.FaultStats(), dst.FaultStats()
	if sst.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", sst.Duplicated)
	}
	if dst2.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", dst2.DedupHits)
	}
	// Without a nonce there is no dedup: the handler legitimately runs twice.
	bare, _ := transport.NewMessage("echo", nil)
	if _, err := src.Call(context.Background(), "dst", bare); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(handled); got != 3 {
		t.Fatalf("handler executed %d times total, want 3 (1 deduped + 2 bare)", got)
	}
}

func TestFaultyPerPeerOverrides(t *testing.T) {
	bus := transport.NewBus()
	src := transport.NewFaulty(bus.Endpoint("src"), 9, transport.Faults{})
	for _, name := range []string{"a", "b"} {
		ep := transport.NewFaulty(bus.Endpoint(name), 10, transport.Faults{})
		ep.Serve(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
			return msg, nil
		})
	}
	src.SetPeerFaults("a", transport.Faults{Drop: 1.0})
	msg, _ := transport.NewMessage("echo", nil)
	if _, err := src.Call(context.Background(), "a", msg); err == nil {
		t.Fatal("call to fully-lossy peer a succeeded")
	}
	if _, err := src.Call(context.Background(), "b", msg); err != nil {
		t.Fatalf("call to clean peer b failed: %v", err)
	}
	src.ClearPeerFaults("a")
	if _, err := src.Call(context.Background(), "a", msg); err != nil {
		t.Fatalf("call to healed peer a failed: %v", err)
	}
}

func TestFaultyResponseDropRunsHandler(t *testing.T) {
	// With Drop=1 every call fails, but roughly half are response drops:
	// the handler must have run for those. Distinguish via FaultStats.
	src, _, handled := echoPair(11, transport.Faults{Drop: 1.0})
	msg, _ := transport.NewMessage("echo", nil)
	for i := 0; i < 50; i++ {
		if _, err := src.Call(context.Background(), "dst", msg); err == nil {
			t.Fatal("call under 100% drop succeeded")
		}
	}
	st := src.FaultStats()
	if st.DroppedReq+st.DroppedResp != 50 {
		t.Fatalf("dropped %d+%d, want 50 total", st.DroppedReq, st.DroppedResp)
	}
	if st.DroppedResp == 0 || st.DroppedReq == 0 {
		t.Fatalf("drop direction never varied: req=%d resp=%d", st.DroppedReq, st.DroppedResp)
	}
	if got := atomic.LoadInt64(handled); got != st.DroppedResp {
		t.Fatalf("handler ran %d times, want %d (one per response drop)", got, st.DroppedResp)
	}
}

func TestDedupHandlerReplaysCachedResponse(t *testing.T) {
	var runs int64
	h := transport.DedupHandler(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		n := atomic.AddInt64(&runs, 1)
		return transport.NewMessage("resp", echoBody{Text: strconv.FormatInt(n, 10)})
	}, 8)
	ctx := context.Background()
	first, err := h(ctx, "x", transport.Message{Type: "q", Nonce: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := h(ctx, "x", transport.Message{Type: "q", Nonce: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&runs) != 1 {
		t.Fatalf("handler ran %d times for one nonce, want 1", runs)
	}
	var a, b echoBody
	if err := first.Decode(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if a.Text != "1" || b.Text != "1" {
		t.Fatalf("replayed response differs: %q vs %q, want the first run's", a.Text, b.Text)
	}
	if _, err := h(ctx, "x", transport.Message{Type: "q", Nonce: "n2"}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&runs) != 2 {
		t.Fatalf("handler ran %d times for two nonces, want 2", runs)
	}
	// Capacity+1 distinct nonces in all (n1, n2, n3..n9): the FIFO evicts
	// n1, the oldest, and n2 still replays. Each rerun nonce then evicts the
	// oldest left (n2, n3, n4 in turn) as the ring wraps.
	for i := 3; i <= 9; i++ {
		if _, err := h(ctx, "x", transport.Message{Type: "q", Nonce: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		nonce string
		reran bool
	}{{"n2", false}, {"n1", true}, {"n2", true}, {"n3", true}, {"n5", false}, {"n9", false}} {
		before := atomic.LoadInt64(&runs)
		if _, err := h(ctx, "x", transport.Message{Type: "q", Nonce: c.nonce}); err != nil {
			t.Fatal(err)
		}
		if reran := atomic.LoadInt64(&runs) > before; reran != c.reran {
			t.Errorf("nonce %s: handler reran = %v, want %v", c.nonce, reran, c.reran)
		}
	}
}

// TestFaultyWrapsTCP exercises the wrapper around a real TCP transport to
// keep the "any inner transport" claim honest.
func TestFaultyWrapsTCP(t *testing.T) {
	inner, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewFaulty(inner, 3, transport.Faults{})
	defer srv.Close()
	srv.Serve(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		return msg, nil
	})
	cliInner, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := transport.NewFaulty(cliInner, 4, transport.Faults{})
	defer cli.Close()
	msg, _ := transport.NewMessage("echo", echoBody{Text: "over tcp"})
	msg.Nonce = "tcp-1"
	resp, err := cli.Call(context.Background(), srv.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	var out echoBody
	if err := resp.Decode(&out); err != nil || out.Text != "over tcp" {
		t.Fatalf("echo mismatch: %q, err %v", out.Text, err)
	}
	cli.Partition(srv.Addr())
	if _, err := cli.Call(context.Background(), srv.Addr(), msg); !errors.Is(err, transport.ErrInjectedFault) {
		t.Fatalf("partitioned TCP call: err = %v", err)
	}
}
