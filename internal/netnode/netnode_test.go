package netnode_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/transport"
)

// cluster is a set of live nodes on a shared in-memory bus.
type cluster struct {
	bus   *transport.Bus
	nodes []*netnode.Node
	rng   *rand.Rand
}

// newCluster spins up one node per name, joining everyone through the first
// node, then runs maintenance rounds until the rings settle.
func newCluster(t *testing.T, seed int64, names []string) *cluster {
	t.Helper()
	c := &cluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(seed))}
	ctx := context.Background()
	for i, name := range names {
		ep := c.bus.Endpoint(fmt.Sprintf("node-%d", i))
		n, err := netnode.New(netnode.Config{
			Name:      name,
			RandomID:  true,
			Rand:      c.rng,
			Transport: ep,
		})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			contact = c.nodes[0].Info().Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatalf("join node %d (%s): %v", i, name, err)
		}
		c.nodes = append(c.nodes, n)
	}
	c.settle(t, 12)
	return c
}

// settle runs maintenance rounds across all nodes.
func (c *cluster) settle(t testing.TB, rounds int) {
	t.Helper()
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
		}
		for _, n := range c.nodes {
			n.FixFingers(ctx)
		}
	}
}

func (c *cluster) close(t testing.TB) {
	t.Helper()
	for _, n := range c.nodes {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

// defaultSuccessorListLen is netnode's SuccessorListLen when Config leaves
// it zero.
const defaultSuccessorListLen = 4

// inPrefix reports whether a node named name belongs to the domain named
// prefix (the root contains everyone).
func inPrefix(name, prefix string) bool {
	return prefix == "" || name == prefix || strings.HasPrefix(name, prefix+"/")
}

// succListOK is the successor-list invariant every node keeps at every
// level: entries strictly clockwise from self (so no duplicates), never
// self, at most max of them.
func succListOK(self netnode.Info, list []netnode.Info, max int) error {
	if len(list) > max {
		return fmt.Errorf("node %d: %d successors, more than %d", self.ID, len(list), max)
	}
	space := id.DefaultSpace()
	var last uint64
	for i, s := range list {
		d := space.Clockwise(id.ID(self.ID), id.ID(s.ID))
		if s.Addr == self.Addr || d == 0 {
			return fmt.Errorf("node %d: successor list %v names the node itself", self.ID, infoIDs(list))
		}
		if i > 0 && d <= last {
			return fmt.Errorf("node %d: successor list %v not strictly clockwise", self.ID, infoIDs(list))
		}
		last = d
	}
	return nil
}

func infoIDs(list []netnode.Info) []uint64 {
	out := make([]uint64, len(list))
	for i, s := range list {
		out[i] = s.ID
	}
	return out
}

// ringOK verifies that the nodes of every domain form a consistent ring at
// the corresponding level: each member's successor list at that level keeps
// succListOK, and its first entry is the next member clockwise.
func (c *cluster) ringOK(t *testing.T, prefix string, level int, exclude map[string]bool) {
	t.Helper()
	var members []*netnode.Node
	for _, n := range c.nodes {
		if !exclude[n.Info().Addr] && inPrefix(n.Info().Name, prefix) {
			members = append(members, n)
		}
	}
	if len(members) < 2 {
		return
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Info().ID < members[j].Info().ID })
	for i, m := range members {
		want := members[(i+1)%len(members)].Info()
		succs := m.Successors(level)
		if len(succs) == 0 {
			t.Fatalf("domain %q: node %d has no successors at level %d", prefix, m.Info().ID, level)
		}
		if err := succListOK(m.Info(), succs, defaultSuccessorListLen); err != nil {
			t.Fatalf("domain %q level %d: %v", prefix, level, err)
		}
		if succs[0].Addr != want.Addr {
			t.Fatalf("domain %q: node %d successor = %d, want %d",
				prefix, m.Info().ID, succs[0].ID, want.ID)
		}
	}
}

func TestBootstrapSingleNode(t *testing.T) {
	bus := transport.NewBus()
	n, err := netnode.New(netnode.Config{
		Name: "a/b", ID: 42, Transport: bus.Endpoint("solo"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx := context.Background()
	if err := n.Join(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := n.Put(ctx, 7, []byte("v"), "", ""); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(ctx, 7)
	if err != nil || string(got) != "v" {
		t.Fatalf("get: %q, %v", got, err)
	}
	if _, err := n.Get(ctx, 8); !errors.Is(err, netnode.ErrNotFound) {
		t.Errorf("absent key: %v", err)
	}
	owner, err := n.Lookup(ctx, 1234, "")
	if err != nil || owner.ID != 42 {
		t.Errorf("lookup on singleton: %+v, %v", owner, err)
	}
}

func TestFlatRingForms(t *testing.T) {
	names := make([]string, 8)
	c := newCluster(t, 1, names) // all in root domain
	defer c.close(t)
	c.ringOK(t, "", 0, nil)

	// Lookups from every node agree on every key's owner.
	ctx := context.Background()
	infos := make([]netnode.Info, len(c.nodes))
	for i, n := range c.nodes {
		infos[i] = n.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	space := id.DefaultSpace()
	for trial := 0; trial < 50; trial++ {
		key := uint64(space.Random(c.rng))
		// Expected owner: greatest ID <= key, wrapping.
		want := infos[len(infos)-1]
		for _, inf := range infos {
			if inf.ID <= key {
				want = inf
			}
		}
		for _, n := range c.nodes {
			got, err := n.Lookup(ctx, key, "")
			if err != nil {
				t.Fatal(err)
			}
			if got.Addr != want.Addr {
				t.Fatalf("lookup(%d) from %d = %d, want %d", key, n.Info().ID, got.ID, want.ID)
			}
		}
	}
}

func hierNames() []string {
	var names []string
	for _, leaf := range []string{"stanford/cs", "stanford/ee", "mit/csail"} {
		for i := 0; i < 5; i++ {
			names = append(names, leaf)
		}
	}
	return names
}

func TestHierarchicalRingsForm(t *testing.T) {
	c := newCluster(t, 2, hierNames())
	defer c.close(t)
	c.ringOK(t, "", 0, nil)
	c.ringOK(t, "stanford", 1, nil)
	c.ringOK(t, "mit", 1, nil)
	c.ringOK(t, "stanford/cs", 2, nil)
	c.ringOK(t, "stanford/ee", 2, nil)
	c.ringOK(t, "mit/csail", 2, nil)
}

func TestHierarchicalLookupStaysInDomain(t *testing.T) {
	c := newCluster(t, 3, hierNames())
	defer c.close(t)
	ctx := context.Background()

	// Constrained lookups return an owner inside the domain.
	for _, n := range c.nodes {
		if n.Info().Name != "stanford/cs" {
			continue
		}
		for trial := 0; trial < 20; trial++ {
			key := uint64(id.DefaultSpace().Random(c.rng))
			owner, err := n.Lookup(ctx, key, "stanford/cs")
			if err != nil {
				t.Fatal(err)
			}
			if owner.Name != "stanford/cs" {
				t.Fatalf("constrained lookup returned outsider %q", owner.Name)
			}
			// And it must be the true owner among stanford/cs members.
			var best netnode.Info
			bestSet := false
			var members []netnode.Info
			for _, m := range c.nodes {
				if m.Info().Name == "stanford/cs" {
					members = append(members, m.Info())
				}
			}
			sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
			best = members[len(members)-1]
			bestSet = true
			for _, inf := range members {
				if inf.ID <= key {
					best = inf
				}
			}
			if bestSet && owner.Addr != best.Addr {
				t.Fatalf("domain owner of %d = %d, want %d", key, owner.ID, best.ID)
			}
		}
	}
}

func TestHierarchicalStorageAndAccess(t *testing.T) {
	c := newCluster(t, 4, hierNames())
	defer c.close(t)
	ctx := context.Background()

	var csNode, eeNode, mitNode *netnode.Node
	for _, n := range c.nodes {
		switch n.Info().Name {
		case "stanford/cs":
			csNode = n
		case "stanford/ee":
			eeNode = n
		case "mit/csail":
			mitNode = n
		}
	}
	// Stored in stanford/cs, visible throughout stanford.
	if err := csNode.Put(ctx, 1000, []byte("paper.pdf"), "stanford/cs", "stanford"); err != nil {
		t.Fatal(err)
	}
	if got, err := csNode.Get(ctx, 1000); err != nil || string(got) != "paper.pdf" {
		t.Fatalf("cs get: %q, %v", got, err)
	}
	if got, err := eeNode.Get(ctx, 1000); err != nil || string(got) != "paper.pdf" {
		t.Fatalf("ee get: %q, %v", got, err)
	}
	if _, err := mitNode.Get(ctx, 1000); !errors.Is(err, netnode.ErrNotFound) {
		t.Fatalf("mit must not access stanford content: %v", err)
	}
	// Validation errors.
	if err := csNode.Put(ctx, 1, nil, "mit/csail", ""); !errors.Is(err, netnode.ErrBadDomain) {
		t.Errorf("put outside own domain: %v", err)
	}
	if err := csNode.Put(ctx, 1, nil, "stanford/cs", "mit"); !errors.Is(err, netnode.ErrBadDomain) {
		t.Errorf("access not containing storage: %v", err)
	}
}

func TestDomainStorageStaysInDomain(t *testing.T) {
	c := newCluster(t, 5, hierNames())
	defer c.close(t)
	ctx := context.Background()
	var cs *netnode.Node
	for _, n := range c.nodes {
		if n.Info().Name == "stanford/cs" {
			cs = n
			break
		}
	}
	// Every cs-stored key must land on a stanford/cs node.
	for i := 0; i < 30; i++ {
		key := uint64(id.DefaultSpace().Random(c.rng))
		if err := cs.Put(ctx, key, []byte("x"), "stanford/cs", "stanford/cs"); err != nil {
			t.Fatal(err)
		}
		owner, err := cs.Lookup(ctx, key, "stanford/cs")
		if err != nil {
			t.Fatal(err)
		}
		if owner.Name != "stanford/cs" {
			t.Fatalf("key %d stored at %q", key, owner.Name)
		}
	}
	total := 0
	for _, n := range c.nodes {
		if n.Info().Name == "stanford/cs" {
			total += n.StoredKeys()
		} else if n.StoredKeys() > 0 {
			// Registry-driven storage is allowed on any node, but cs-domain
			// items must not appear outside. StoredKeys counts items, so a
			// nonzero count here could be registry-free: verify by access.
			if got, err := n.Get(ctx, 12345678); err == nil && got != nil {
				t.Fatalf("unexpected content on %q", n.Info().Name)
			}
		}
	}
	if total == 0 {
		t.Fatal("no cs node stored anything")
	}
}

func TestNodeFailureRepair(t *testing.T) {
	names := make([]string, 10)
	c := newCluster(t, 6, names)
	defer c.close(t)
	ctx := context.Background()

	// Crash two nodes.
	downed := map[string]bool{}
	for _, i := range []int{3, 7} {
		addr := c.nodes[i].Info().Addr
		c.bus.SetDown(addr, true)
		downed[addr] = true
	}
	c.settle(t, 12)
	c.ringOK(t, "", 0, downed)

	// Lookups from survivors still converge on a live owner.
	for _, n := range c.nodes {
		if downed[n.Info().Addr] {
			continue
		}
		owner, err := n.Lookup(ctx, 777, "")
		if err != nil {
			t.Fatalf("lookup after failures: %v", err)
		}
		if downed[owner.Addr] {
			t.Fatalf("lookup returned dead node %d", owner.ID)
		}
	}
}

func TestGracefulLeaveTransfersData(t *testing.T) {
	names := make([]string, 6)
	c := newCluster(t, 7, names)
	defer c.close(t)
	ctx := context.Background()

	key := uint64(0xABCDE)
	if err := c.nodes[0].Put(ctx, key, []byte("keep-me"), "", ""); err != nil {
		t.Fatal(err)
	}
	owner, err := c.nodes[0].Lookup(ctx, key, "")
	if err != nil {
		t.Fatal(err)
	}
	// Make the owner leave.
	var leaver *netnode.Node
	for _, n := range c.nodes {
		if n.Info().Addr == owner.Addr {
			leaver = n
			break
		}
	}
	if leaver == nil {
		t.Fatal("owner not found")
	}
	if err := leaver.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	c.bus.SetDown(owner.Addr, true) // make sure nobody reaches it
	// Let survivors repair, then the value must still be retrievable.
	alive := c.nodes[:0]
	for _, n := range c.nodes {
		if n != leaver {
			alive = append(alive, n)
		}
	}
	c.nodes = alive
	c.settle(t, 10)
	got, err := c.nodes[0].Get(ctx, key)
	if err != nil || string(got) != "keep-me" {
		t.Fatalf("value lost after graceful leave: %q, %v", got, err)
	}
}

func TestLateJoinFindsDeepDomain(t *testing.T) {
	// Join a node into a deep domain through a contact in a different
	// domain: the membership registry must route it home.
	c := newCluster(t, 8, hierNames())
	defer c.close(t)
	ctx := context.Background()

	ep := c.bus.Endpoint("late")
	late, err := netnode.New(netnode.Config{
		Name: "stanford/cs", RandomID: true, Rand: c.rng, Transport: ep,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Contact is an MIT node.
	var mit *netnode.Node
	for _, n := range c.nodes {
		if n.Info().Name == "mit/csail" {
			mit = n
			break
		}
	}
	if err := late.Join(ctx, mit.Info().Addr); err != nil {
		t.Fatal(err)
	}
	c.nodes = append(c.nodes, late)
	c.settle(t, 10)
	c.ringOK(t, "stanford/cs", 2, nil)
	c.ringOK(t, "", 0, nil)
}

func TestLookupHopsBounded(t *testing.T) {
	names := make([]string, 16)
	c := newCluster(t, 9, names)
	defer c.close(t)
	ctx := context.Background()
	var total, count float64
	for i := 0; i < 100; i++ {
		n := c.nodes[c.rng.Intn(len(c.nodes))]
		key := uint64(id.DefaultSpace().Random(c.rng))
		_, hops, err := n.LookupHops(ctx, key, "")
		if err != nil {
			t.Fatal(err)
		}
		total += float64(hops)
		count++
	}
	if avg := total / count; avg > 8 {
		t.Errorf("average lookup hops %.1f too high for 16 nodes", avg)
	}
}

func TestBackgroundMaintenance(t *testing.T) {
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(10))
	ctx := context.Background()
	var nodes []*netnode.Node
	for i := 0; i < 4; i++ {
		n, err := netnode.New(netnode.Config{
			RandomID: true, Rand: rng,
			Transport: bus.Endpoint(fmt.Sprintf("bg-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			contact = nodes[0].Info().Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatal(err)
		}
		n.Start(5 * time.Millisecond)
		nodes = append(nodes, n)
	}
	time.Sleep(100 * time.Millisecond)
	// Check every node before closing any: a node checked after its
	// neighbors closed has rightly dropped them by then.
	for _, n := range nodes {
		if len(n.Successors(0)) == 0 {
			t.Error("no successors after background maintenance")
		}
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

func TestOverTCP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(11))
	var nodes []*netnode.Node
	for i := 0; i < 4; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n, err := netnode.New(netnode.Config{
			Name: "tcp/test", RandomID: true, Rand: rng, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			contact = nodes[0].Info().Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for r := 0; r < 3; r++ {
		for _, n := range nodes {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
		}
	}
	if err := nodes[1].Put(ctx, 99, []byte("over-tcp"), "", ""); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[3].Get(ctx, 99)
	if err != nil || string(got) != "over-tcp" {
		t.Fatalf("tcp get: %q, %v", got, err)
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	names := make([]string, 6)
	c := newCluster(t, 51, names)
	defer c.close(t)
	ctx := context.Background()

	before := c.nodes[0].Stats()
	if _, err := c.nodes[0].Lookup(ctx, 12345, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[0].Put(ctx, 12345, []byte("x"), "", ""); err != nil {
		t.Fatal(err)
	}
	after := c.nodes[0].Stats()
	if after.Sent["lookup"] < before.Sent["lookup"] {
		t.Error("sent lookup counter should not decrease")
	}
	totalSent := int64(0)
	for _, v := range after.Sent {
		totalSent += v
	}
	if totalSent == 0 {
		t.Error("no messages counted as sent")
	}
	// Some node must have received lookups.
	received := int64(0)
	for _, n := range c.nodes {
		received += n.Stats().Received["lookup"]
	}
	if received == 0 {
		t.Error("no lookup receipts counted")
	}
	// The snapshot is a copy: mutating it must not affect the node.
	after.Sent["lookup"] = -999
	if c.nodes[0].Stats().Sent["lookup"] == -999 {
		t.Error("Stats returned internal map")
	}
}

func TestStatusEndpoint(t *testing.T) {
	c := newCluster(t, 52, hierNames())
	defer c.close(t)
	node := c.nodes[0]

	srv := httptest.NewServer(node)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st netnode.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Info.Addr != node.Info().Addr {
		t.Errorf("status info mismatch: %+v", st.Info)
	}
	if len(st.Levels) != node.Levels()+1 {
		t.Errorf("levels = %d, want %d", len(st.Levels), node.Levels()+1)
	}
	for _, lvl := range st.Levels {
		if len(lvl.Successors) == 0 {
			t.Errorf("level %d has no successors", lvl.Level)
		}
	}
	// Non-GET is rejected.
	postResp, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", postResp.StatusCode)
	}
}
