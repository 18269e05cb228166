package netnode

import (
	"context"
	"errors"
	"testing"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/transport"
)

var errBarrier = errors.New("injected barrier failure")

// failingSyncStore passes everything through until armed, then fails the
// durability barrier.
type failingSyncStore struct {
	canonstore.Store
	fail bool
}

func (s *failingSyncStore) Sync() error {
	if s.fail {
		return errBarrier
	}
	return s.Store.Sync()
}

// TestSyncWithSurfacesBarrierError: pulled anti-entropy repairs are acked
// writes by proxy, so a failed store.Sync after applying them must surface
// as the round's error instead of being discarded.
func TestSyncWithSurfacesBarrierError(t *testing.T) {
	ctx := context.Background()
	bus := transport.NewBus()
	fs := &failingSyncStore{Store: canonstore.NewMem()}
	a, err := New(Config{Name: "a", ID: 100, Transport: bus.Endpoint("a"), Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Name: "b", ID: 200, Transport: bus.Endpoint("b")})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Join(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(ctx, a.Info().Addr); err != nil {
		t.Fatal(err)
	}

	// Seed the peer with a record the local node lacks, then sync the whole
	// ring (lo == hi): the record must be pulled, and the failed barrier
	// must surface.
	if err := b.storeLocalV2(storeRecord{Key: 42, Value: []byte("x"), Version: 7}); err != nil {
		t.Fatal(err)
	}
	fs.fail = true
	_, pulled, err := a.syncWith(ctx, b.Info(), "", 0, 0)
	if pulled != 1 {
		t.Fatalf("pulled = %d, want 1", pulled)
	}
	if !errors.Is(err, errBarrier) {
		t.Fatalf("syncWith error = %v, want the injected barrier failure", err)
	}
}
