package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the fixture annotation `// want `<regexp>“, the golden
// syntax every bad.go line with an expected finding carries.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// fixtureWants parses the want annotations of every .go file directly in dir
// (sub-packages excluded), keyed by "file.go:line".
func fixtureWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// TestFixtures is the golden corpus: for every check, the testdata/<check>
// package must produce exactly the findings its want comments declare — each
// bad.go line fires, every clean.go construct stays silent, and the pragma
// lines prove the escape hatch.
func TestFixtures(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, chk := range AllChecks() {
		t.Run(chk.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", chk.Name)
			if _, err := os.Stat(dir); err != nil {
				t.Fatalf("check %s has no fixture directory: %v", chk.Name, err)
			}
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loader.LoadDirs([]string{dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, terr := range pkg.TypeErrors {
					t.Errorf("fixture must type-check cleanly: %v", terr)
				}
			}

			cfg := DefaultConfig(loader.Module)
			cfg.Enabled = map[string]bool{chk.Name: true}
			fixturePath, err := loader.importPath(dir)
			if err != nil {
				t.Fatal(err)
			}
			switch chk.Name {
			case "simdeterminism":
				// The fixture package plays a seed-reproducible simulation
				// package, the way cmd/canonvet's config lists the real ones.
				cfg.SimPackages[fixturePath] = true
			case deadPragmaName:
				// The meta-check needs the other checks to run (staleness is
				// "named check ran and suppressed nothing"); the fixture is
				// deliberately clean under all of them.
				cfg.Enabled = nil
			}

			diags := Run(cfg, loader.Fset, pkgs)
			wants := fixtureWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no want annotations", dir)
			}
			used := make(map[string][]bool, len(wants))
			for key, pats := range wants {
				used[key] = make([]bool, len(pats))
			}
			for _, d := range diags {
				if d.Check != chk.Name {
					t.Errorf("diagnostic from unexpected check %s: %s", d.Check, d)
					continue
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
				matched := false
				for i, pat := range wants[key] {
					if used[key][i] {
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", pat, err)
					}
					if re.MatchString(d.Message) {
						used[key][i] = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
				}
			}
			for key, pats := range wants {
				for i, pat := range pats {
					if !used[key][i] {
						t.Errorf("missing diagnostic at %s matching %q", key, pat)
					}
				}
			}
		})
	}
}

// TestModuleClean pins the acceptance bar: the full tree under every check
// produces zero findings (real problems were fixed; deliberate exceptions
// carry justified ignore pragmas).
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(loader.Module)
	diags := Run(cfg, loader.Fset, pkgs)
	for _, d := range diags {
		t.Errorf("module must be canonvet-clean: %s", d)
	}
}

// TestPragmaParsing covers the two pragma scopes directly: above the package
// clause (file-wide) and adjacent to a line (that line and the next).
func TestPragmaParsing(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "globalrand")
	pkgs, err := loader.LoadDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(loader.Module)
	cfg.Enabled = map[string]bool{"globalrand": true}
	diags := Run(cfg, loader.Fset, pkgs)
	for _, d := range diags {
		base := filepath.Base(d.File)
		if base == "ignored.go" {
			t.Errorf("file-wide pragma failed to suppress: %s", d)
		}
	}
}

// driftSrc seeds the fingerprint test with findings of two checks: the
// node/tracker lock-order inversion (one edge each way) and a draw from the
// global math/rand source.
const driftSrc = `package scratch

import (
	"math/rand"
	"sync"
)

type node struct {
	mu      sync.Mutex
	tracker *tracker
}

type tracker struct {
	mu    sync.Mutex
	owner *node
}

func (n *node) Demote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracker.markDead()
}

func (t *tracker) markDead() {
	t.mu.Lock()
	defer t.mu.Unlock()
}

func (t *tracker) Report() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.owner.refresh()
}

func (n *node) refresh() {
	n.mu.Lock()
	defer n.mu.Unlock()
}

func jitter() int { return rand.Intn(10) }
`

// TestDataflowFingerprintsSurviveLineDrift pins the baseline contract (its
// name predates the deletion of the value-flow engine): messages are
// position-free — positions live in the File:Line fields — so a finding's
// fingerprint is identical after unrelated edits shift every line number.
// Without this, -baseline files would rot on every refactor.
func TestDataflowFingerprintsSurviveLineDrift(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// The scratch package sits under testdata, inside the module (so the
	// loader gives it an import path) but out of module-wide runs.
	dir, err := os.MkdirTemp(filepath.Join(root, "internal", "lint", "testdata"), "scratch-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	fingerprints := func(src string) map[string]bool {
		if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.LoadDirs([]string{dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(loader.Module)
		cfg.Root = root
		out := make(map[string]bool)
		for _, d := range Run(cfg, loader.Fset, pkgs) {
			if strings.Contains(d.Message, ".go:") {
				t.Errorf("message is not position-free: %s", d.Message)
			}
			out[d.Fingerprint] = true
		}
		return out
	}
	before := fingerprints(driftSrc)
	after := fingerprints("package scratch\n\n// drift\n// drift\n// drift\n" +
		strings.TrimPrefix(driftSrc, "package scratch\n"))
	if len(before) != 3 {
		t.Fatalf("%d distinct findings, want driftSrc's two lockorder edges and one globalrand", len(before))
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
