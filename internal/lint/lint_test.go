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
			case "nodeadline":
				// The fixture package plays a command entry point.
				cfg.EntryPackages[fixturePath] = true
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
