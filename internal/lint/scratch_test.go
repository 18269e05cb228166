package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchSrc deliberately plants the two bug classes the acceptance bar
// cares about — a lock-order inversion between two named mutexes and a
// goroutine with no stop path — inside otherwise ordinary node-flavored
// code, in a package generated at test runtime. Catching these proves the
// engine generalizes beyond the hand-written golden fixtures.
const scratchSrc = `package scratch

import (
	"sync"
	"time"
)

type node struct {
	mu      sync.Mutex
	tracker *tracker
}

type tracker struct {
	mu    sync.Mutex
	owner *node
}

// Demote locks node.mu, then reaches tracker.mu through a helper.
func (n *node) Demote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracker.markDead()
}

func (t *tracker) markDead() {
	t.mu.Lock()
	defer t.mu.Unlock()
}

// Report locks tracker.mu, then calls back into the owning node — the
// classic inversion.
func (t *tracker) Report() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.owner.refresh()
}

func (n *node) refresh() {
	n.mu.Lock()
	defer n.mu.Unlock()
}

// Start spawns a maintenance loop that nothing can ever stop.
func (n *node) Start() {
	go n.maintain()
}

func (n *node) maintain() {
	for {
		time.Sleep(time.Second)
		n.refresh()
	}
}
`

// dataflowScratchSrc plants one seeded defect per v3 value-flow check —
// a use-after-put on a pooled buffer, a post-publish snapshot write, a
// mixed atomic/plain counter, and a discarded durability barrier — inside
// otherwise ordinary storage-flavored code generated at test runtime.
const dataflowScratchSrc = `package scratch

import (
	"sync"
	"sync/atomic"
)

// --- pool lifecycle: handle returns the buffer and then reads it.

type buf struct {
	b []byte
}

var bufPool = sync.Pool{New: func() any { return new(buf) }}

func handle() int {
	b := bufPool.Get().(*buf)
	bufPool.Put(b)
	return len(b.b)
}

// --- snapshot publication: install mutates the view it just published.

type view struct {
	epoch int
}

var current atomic.Pointer[view]

func install() {
	v := &view{epoch: 1}
	current.Store(v)
	v.epoch = 2
}

// --- counters: bump is atomic, read is plain, no common lock.

var hits uint64

func bump() { atomic.AddUint64(&hits, 1) }

func read() uint64 { return hits }

// --- durability: commit drops the barrier error before the ack.

type file struct{ dirty bool }

func (f *file) Sync() error {
	f.dirty = false
	return nil
}

type wal struct{ f *file }

func (w *wal) commit() {
	w.f.Sync()
}
`

// TestScratchDataflowProof runs the full analyzer over the generated
// package and demands that each of the four seeded value-flow defects is
// caught with a correct dataflow evidence chain — and that nothing else
// fires.
func TestScratchDataflowProof(t *testing.T) {
	cfg, _, pkgs, loader := writeScratchPkg(t, map[string]string{"scratch.go": dataflowScratchSrc})
	// The scratch package plays the storage engine so its Sync is in scope.
	cfg.DurabilityPackages[pkgs[0].Path] = true
	diags := Run(cfg, loader.Fset, pkgs)

	want := map[string]struct{ msg, evidence string }{
		"poolescape":    {`pooled value "b" is used after being returned to the pool`, "returned to the pool"},
		"publishrace":   {`value "v" is written after being published`, "atomic store current.Store"},
		"atomicmix":     {"hits is accessed both through sync/atomic and by plain load/store", "atomic access"},
		"durabilityerr": {"Sync is discarded in", "returns an error"},
	}
	seen := make(map[string]bool)
	for _, d := range diags {
		exp, ok := want[d.Check]
		if !ok {
			t.Errorf("unexpected %s finding in scratch package: %s", d.Check, d)
			continue
		}
		if seen[d.Check] {
			t.Errorf("check %s fired more than once: %s", d.Check, d)
			continue
		}
		seen[d.Check] = true
		if !strings.Contains(d.Message, exp.msg) {
			t.Errorf("%s message %q does not contain %q", d.Check, d.Message, exp.msg)
		}
		if len(d.Chain) < 2 {
			t.Errorf("%s diagnostic carries no dataflow evidence chain: %v", d.Check, d.Chain)
		}
		if !strings.Contains(strings.Join(d.Chain, "\n"), exp.evidence) {
			t.Errorf("%s evidence chain %v does not mention %q", d.Check, d.Chain, exp.evidence)
		}
		if d.Fingerprint == "" {
			t.Errorf("%s diagnostic missing fingerprint: %s", d.Check, d)
		}
	}
	for check := range want {
		if !seen[check] {
			t.Errorf("seeded %s defect was not caught", check)
		}
	}
}

// TestDataflowFingerprintsSurviveLineDrift pins the baseline contract for
// the v3 checks: their messages are position-free, so a finding's
// fingerprint is identical after unrelated edits shift every line number.
// Without this, -baseline files would rot on every refactor.
func TestDataflowFingerprintsSurviveLineDrift(t *testing.T) {
	cfg, _, pkgs, loader := writeScratchPkg(t, map[string]string{"scratch.go": dataflowScratchSrc})
	cfg.DurabilityPackages[pkgs[0].Path] = true

	fingerprints := func(diags []Diagnostic) map[string]bool {
		out := make(map[string]bool, len(diags))
		for _, d := range diags {
			if strings.Contains(d.Message, ".go:") {
				t.Errorf("message is not position-free: %s", d.Message)
			}
			out[d.Fingerprint] = true
		}
		return out
	}
	before := fingerprints(Run(cfg, loader.Fset, pkgs))

	// Shift every line down and reanalyze the same path.
	drifted := "package scratch\n\n// drift\n// drift\n// drift\n" +
		strings.TrimPrefix(dataflowScratchSrc, "package scratch\n")
	path := filepath.Join(pkgs[0].Dir, "scratch.go")
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	loader2, err := NewLoader(cfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs2, err := loader2.LoadDirs([]string{pkgs[0].Dir})
	if err != nil {
		t.Fatal(err)
	}
	after := fingerprints(Run(cfg, loader2.Fset, pkgs2))

	if len(before) == 0 {
		t.Fatal("no findings to compare")
	}
	for fp := range before {
		if !after[fp] {
			t.Errorf("fingerprint %s vanished after line drift", fp)
		}
	}
	for fp := range after {
		if !before[fp] {
			t.Errorf("fingerprint %s appeared after line drift", fp)
		}
	}
}

// TestScratchEngineProof runs the full analyzer (not a single check) over
// the generated package and demands that both planted bugs are caught, each
// with call-chain evidence.
func TestScratchEngineProof(t *testing.T) {
	cfg, _, pkgs, loader := writeScratchPkg(t, map[string]string{"scratch.go": scratchSrc})
	diags := Run(cfg, loader.Fset, pkgs)

	var sawLockOrder, sawLeak bool
	for _, d := range diags {
		switch d.Check {
		case "lockorder":
			sawLockOrder = true
			if !strings.Contains(d.Message, "node.mu") || !strings.Contains(d.Message, "tracker.mu") {
				t.Errorf("lockorder diagnostic should name both classes: %s", d.Message)
			}
			if len(d.Chain) == 0 {
				t.Error("lockorder diagnostic carries no call-chain evidence")
			}
		case "goroutineleak":
			sawLeak = true
			if !strings.Contains(d.Message, "maintain") {
				t.Errorf("goroutineleak diagnostic should name the looping function: %s", d.Message)
			}
			if len(d.Chain) == 0 {
				t.Error("goroutineleak diagnostic carries no call-chain evidence")
			}
		case "lockheldrpc2", "nodeadline", "deadpragma":
			t.Errorf("unexpected %s finding in scratch package: %s", d.Check, d)
		}
	}
	if !sawLockOrder {
		t.Error("deliberate lock-order inversion (node.mu <-> tracker.mu) was not caught")
	}
	if !sawLeak {
		t.Error("deliberate stop-less maintenance goroutine was not caught")
	}
	for _, d := range diags {
		if d.Fingerprint == "" {
			t.Errorf("diagnostic missing fingerprint: %s", d)
		}
	}
}
