// Package lint implements canonvet, a project-specific static analyzer for
// the Canon DHT codebase. It mechanically enforces invariants the project
// has already been bitten by (or is structurally exposed to): circular-ID
// arithmetic must go through the ring-metric helpers in internal/id,
// pure-simulation packages must stay seed-reproducible, shared RNGs must be
// lock-adjacent, named mutexes must be taken in one order within a package,
// metric names must be named constants, message envelopes must carry their
// dedup nonce, and published copy-on-write snapshot types (marked
// //canonvet:immutable) must only be mutated in the file that declares them
// — their builder — never by a reader of a shared view. A deadpragma
// meta-check keeps the suppression pragmas themselves honest.
//
// Every check reads one package at a time; there is no call graph. An RPC
// under a mutex, a goroutine with no stop path, a wire path with no deadline,
// pool recycling, writes after an atomic publication, mixed atomic/plain
// access and the store-ack durability contract are held by types, tests and
// scripts/lint.sh instead (see DESIGN.md).
//
// Checks are table-driven (see AllChecks). Every check honors the escape
// hatch
//
//	//canonvet:ignore <check>[,<check>...] -- <one-line justification>
//
// placed above the package clause (whole file) or on/above the offending
// line (that line only). The analyzer is stdlib-only: go/ast + go/parser +
// go/types + go/token, with go/importer resolving standard-library imports
// from source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, with a position that renders as file:line:col.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
	// Fingerprint identifies the finding across line drift: a hash of the
	// check, the module-relative file path, and the message. Baseline files
	// (canonvet -baseline) store fingerprints.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Column, d.Message, d.Check)
}

// Check is one named analysis of one package at a time.
type Check struct {
	// Name is the identifier used by -checks and ignore pragmas.
	Name string
	// Doc is a one-line description shown by canonvet -list.
	Doc string
	// Run reports findings for one package through pass.Reportf; nil for
	// the deadpragma meta-check, which Run drives itself.
	Run func(pass *Pass)
}

// deadPragmaName is the meta-check's name; its logic lives in Run itself
// (it must observe every other check's suppressions).
const deadPragmaName = "deadpragma"

// AllChecks returns the check table, in reporting order. New checks are
// appended here.
func AllChecks() []Check {
	return []Check{
		checkRingCmp,
		checkGlobalRand,
		checkSimDeterminism,
		checkLockOrder,
		checkMetricNames,
		checkSnapshotMut,
		{
			Name: deadPragmaName,
			Doc:  "//canonvet:ignore pragmas whose check no longer fires at that scope (stale suppressions)",
		},
	}
}

// Config tunes the checks to the module under analysis.
type Config struct {
	// ModulePath is the module's import path prefix.
	ModulePath string
	// Root is the module root directory; when set, diagnostic fingerprints
	// use module-relative paths so they survive checkouts in different
	// directories.
	Root string
	// SimPackages is the set of import paths whose results must be
	// seed-reproducible (the simdeterminism check's scope). External test
	// units share their base package's path and scope.
	SimPackages map[string]bool
	// MetricExemptPackages may register metrics with literal names: the
	// telemetry registry's own package (its implementation and tests
	// exercise arbitrary names by design).
	MetricExemptPackages map[string]bool
	// Enabled restricts the run to the named checks; nil means all.
	Enabled map[string]bool
}

// DefaultConfig returns the Canon module's tuning: the pure-simulation
// packages from the paper's analytical side, and the telemetry registry as
// the only package allowed to touch raw metric-name strings.
func DefaultConfig(module string) *Config {
	sim := map[string]bool{
		module:                           true, // the analytical Canon model itself
		module + "/internal/chord":       true,
		module + "/internal/symphony":    true,
		module + "/internal/kademlia":    true,
		module + "/internal/can":         true,
		module + "/internal/core":        true,
		module + "/internal/dynamic":     true,
		module + "/internal/experiments": true,
	}
	return &Config{
		ModulePath:           module,
		SimPackages:          sim,
		MetricExemptPackages: map[string]bool{module + "/internal/telemetry": true},
	}
}

// enabled reports whether the named check runs under this config.
func (cfg *Config) enabled(name string) bool {
	return cfg.Enabled == nil || cfg.Enabled[name]
}

// Pass carries one check's view of one package.
type Pass struct {
	Cfg  *Config
	Fset *token.FileSet
	Pkg  *Package

	check   string
	ignores map[string]*fileIgnores // keyed by filename
	sink    *[]Diagnostic
}

// Reportf records a finding at pos unless an ignore pragma suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if ig, ok := p.ignores[position.Filename]; ok && ig.suppressed(p.check, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Check:   p.check,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when type information is
// incomplete (checks must degrade gracefully).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return typeOf(p.Pkg.Info, e)
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// PkgFuncCall resolves call to a package-level function: it returns the
// imported package's path and the function name, or ok == false for method
// calls, conversions, locals and unresolved names.
func (p *Pass) PkgFuncCall(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// IsNamed reports whether t (through pointers) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// namedOf returns the named type behind t (through pointers), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pragma is one parsed //canonvet:ignore directive. fileWide pragmas sit
// above the package clause; line pragmas suppress their own line and the
// next. used records which named checks the pragma actually suppressed, so
// the deadpragma meta-check can flag stale suppressions.
type pragma struct {
	checks   []string
	fileWide bool
	line     int
	pos      token.Pos
	used     map[string]bool
}

func (pr *pragma) names(check string) bool {
	for _, c := range pr.checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

// fileIgnores is the parsed //canonvet:ignore pragmas of one file.
type fileIgnores struct {
	filename string
	pragmas  []*pragma
}

// suppressed reports whether a pragma covers the finding, marking the
// matching pragma as used.
func (ig *fileIgnores) suppressed(check string, pos token.Position) bool {
	if ig.filename != pos.Filename {
		return false
	}
	for _, pr := range ig.pragmas {
		if !pr.names(check) {
			continue
		}
		if pr.fileWide || pr.line == pos.Line || pr.line+1 == pos.Line {
			pr.used[check] = true
			return true
		}
	}
	return false
}

// parseIgnores scans a file's comments for canonvet pragmas. A pragma above
// the package clause suppresses the named checks for the whole file; any
// other pragma suppresses them on its own line and the line below it.
func parseIgnores(fset *token.FileSet, f *ast.File) *fileIgnores {
	ig := &fileIgnores{filename: fset.Position(f.Pos()).Filename}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			rest, ok := strings.CutPrefix(text, "canonvet:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			ig.pragmas = append(ig.pragmas, &pragma{
				checks:   strings.Split(fields[0], ","),
				fileWide: c.End() < f.Package,
				line:     fset.Position(c.Pos()).Line,
				pos:      c.Pos(),
				used:     make(map[string]bool),
			})
		}
	}
	return ig
}

// reportDeadPragmas emits the deadpragma meta-check: every parsed pragma
// entry naming a check that ran in this invocation but suppressed nothing is
// stale, and pragmas naming unknown checks are typos. "all" pragmas are only
// judged when the full check set ran (a restricted -checks run cannot prove
// them dead). Deadpragma findings deliberately bypass pragma suppression:
// the pragma under report would otherwise suppress its own staleness (an
// "all" pragma names every check, deadpragma included), and the only honest
// fix is deleting the pragma anyway.
func reportDeadPragmas(fset *token.FileSet, cfg *Config, ignores map[string]*fileIgnores,
	ran map[string]bool, fullSet bool, sink *[]Diagnostic) {
	known := make(map[string]bool)
	for _, c := range AllChecks() {
		known[c.Name] = true
	}
	emit := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		*sink = append(*sink, Diagnostic{
			Check: deadPragmaName, File: p.Filename, Line: p.Line, Column: p.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	files := make([]string, 0, len(ignores))
	for f := range ignores {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, pr := range ignores[f].pragmas {
			for _, name := range pr.checks {
				switch {
				case name == "all":
					if fullSet && len(pr.used) == 0 {
						emit(pr.pos,
							"stale //canonvet:ignore all: no check fires at this scope; remove the pragma")
					}
				case !known[name]:
					emit(pr.pos,
						"//canonvet:ignore names unknown check %q (see canonvet -list)", name)
				case ran[name] && !pr.used[name]:
					emit(pr.pos,
						"stale //canonvet:ignore: check %q no longer fires at this scope; remove the pragma", name)
				}
			}
		}
	}
}

// Fingerprint computes the stable identity of a finding for baseline files:
// a 64-bit FNV-1a hash of check, module-relative path, and message — line
// and column excluded so fingerprints survive unrelated edits.
func (cfg *Config) Fingerprint(d Diagnostic) string {
	file := d.File
	if cfg.Root != "" {
		if rel, err := filepath.Rel(cfg.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", d.Check, file, d.Message)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run executes the enabled checks over every package and returns the
// findings sorted by position. The package checks run first, then the
// deadpragma meta-check over the suppression evidence they left behind.
func Run(cfg *Config, fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	ignores := make(map[string]*fileIgnores)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ig := parseIgnores(fset, f)
			ignores[ig.filename] = ig
		}
	}

	ran := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, chk := range AllChecks() {
			if chk.Run == nil || !cfg.enabled(chk.Name) {
				continue
			}
			ran[chk.Name] = true
			pass := &Pass{
				Cfg: cfg, Fset: fset, Pkg: pkg,
				check: chk.Name, ignores: ignores, sink: &diags,
			}
			chk.Run(pass)
		}
	}

	if cfg.enabled(deadPragmaName) {
		fullSet := true
		for _, chk := range AllChecks() {
			if chk.Name != deadPragmaName && !ran[chk.Name] {
				fullSet = false
			}
		}
		reportDeadPragmas(fset, cfg, ignores, ran, fullSet, &diags)
	}

	for i := range diags {
		diags[i].Fingerprint = cfg.Fingerprint(diags[i])
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
	return diags
}
