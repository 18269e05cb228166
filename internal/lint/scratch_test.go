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

// TestDataflowFingerprintsSurviveLineDrift pins the baseline contract for
// the interprocedural checks: their messages are position-free — positions
// live in the File:Line fields and the -why chain — so a finding's
// fingerprint is identical after unrelated edits shift every line number.
// Without this, -baseline files would rot on every refactor. scratchSrc's
// lockorder and goroutineleak findings are the seed.
func TestDataflowFingerprintsSurviveLineDrift(t *testing.T) {
	cfg, _, pkgs, loader := writeScratchPkg(t, map[string]string{"scratch.go": scratchSrc})

	fingerprints := func(diags []Diagnostic) map[string]bool {
		out := make(map[string]bool, len(diags))
		for _, d := range diags {
			if strings.Contains(d.Message, ".go:") {
				t.Errorf("message is not position-free: %s", d.Message)
			}
			if len(d.Chain) == 0 {
				t.Errorf("%s finding carries no -why chain: %s", d.Check, d)
			}
			out[d.Fingerprint] = true
		}
		return out
	}
	before := fingerprints(Run(cfg, loader.Fset, pkgs))

	// Shift every line down and reanalyze the same path.
	drifted := "package scratch\n\n// drift\n// drift\n// drift\n" +
		strings.TrimPrefix(scratchSrc, "package scratch\n")
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

	if len(before) != 2 {
		t.Fatalf("%d distinct findings, want scratchSrc's lockorder and goroutineleak", len(before))
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
