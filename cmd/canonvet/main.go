// Command canonvet is the Canon DHT project's static analyzer: it loads
// every package in the module and reports violations of project invariants —
// circular-ID arithmetic outside the ring helpers, nondeterminism in
// seed-reproducible simulation packages, shared RNGs without locks, two
// mutexes taken in both orders within a package, raw metric-name strings,
// writes to published snapshot types outside the file that declares them,
// and stale suppression pragmas: 7 checks (-list), each reading one package
// at a time.
//
// An RPC under a mutex, a goroutine with no stop path, a wire path with no
// deadline, pool recycling, writes after an atomic publication, mixed
// atomic/plain access and the store-ack durability contract are not
// canonvet's: types, tests and scripts/lint.sh hold them
// (internal/lint/DESIGN.md).
//
// Usage:
//
//	go run ./cmd/canonvet ./...              # whole module, human output
//	go run ./cmd/canonvet -json ./...        # machine-readable findings
//	go run ./cmd/canonvet -checks lockorder,ringcmp ./internal/netnode
//	go run ./cmd/canonvet -list              # describe every check
//	go run ./cmd/canonvet -write-baseline .canonvet-baseline ./...
//	go run ./cmd/canonvet -baseline .canonvet-baseline ./...  # fail on NEW findings only
//
// Exit status: 0 clean, 1 findings (new findings when -baseline is given),
// 2 usage or load failure. Deliberate exceptions are annotated in source with
//
//	//canonvet:ignore <check>[,<check>] -- <justification>
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/canon-dht/canon/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("canonvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (always newline-terminated)")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	verbose := fs.Bool("v", false, "report type-checking problems encountered while loading")
	baseline := fs.String("baseline", "", "fingerprint file of known findings; exit 1 only on findings not in it")
	writeBaseline := fs.String("write-baseline", "", "write the current findings' fingerprints to this file and exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "canonvet:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "canonvet:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "canonvet:", err)
		return 2
	}

	dirs, err := targetDirs(root, cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "canonvet:", err)
		return 2
	}
	pkgs, err := loader.LoadDirs(dirs)
	if err != nil {
		fmt.Fprintln(stderr, "canonvet:", err)
		return 2
	}
	if *verbose {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "canonvet: load %s: %v\n", pkg.Path, terr)
			}
		}
	}

	cfg := lint.DefaultConfig(loader.Module)
	cfg.Root = root
	if *checks != "" {
		cfg.Enabled = make(map[string]bool)
		known := make(map[string]bool)
		for _, c := range lint.AllChecks() {
			known[c.Name] = true
		}
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(stderr, "canonvet: unknown check %q (see -list)\n", name)
				return 2
			}
			cfg.Enabled[name] = true
		}
	}

	diags := lint.Run(cfg, loader.Fset, pkgs)

	if *writeBaseline != "" {
		if err := writeBaselineFile(*writeBaseline, diags); err != nil {
			fmt.Fprintln(stderr, "canonvet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "canonvet: wrote %d fingerprint(s) to %s\n", len(diags), *writeBaseline)
		return 0
	}

	known := make(map[string]bool)
	if *baseline != "" {
		known, err = readBaselineFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "canonvet:", err)
			return 2
		}
	}
	var fresh []lint.Diagnostic
	baselined := 0
	for _, d := range diags {
		if known[d.Fingerprint] {
			baselined++
			continue
		}
		fresh = append(fresh, d)
	}

	if *jsonOut {
		// json.Encoder.Encode terminates its output with '\n', so the
		// artifact is always newline-terminated and safe to concatenate.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if fresh == nil {
			fresh = []lint.Diagnostic{}
		}
		if err := enc.Encode(fresh); err != nil {
			fmt.Fprintln(stderr, "canonvet:", err)
			return 2
		}
	} else {
		for _, d := range fresh {
			fmt.Fprintln(stdout, d.String())
		}
		if len(fresh) > 0 {
			fmt.Fprintf(stderr, "canonvet: %d finding(s)\n", len(fresh))
		}
	}
	if baselined > 0 {
		fmt.Fprintf(stderr, "canonvet: %d baselined finding(s) suppressed (burn them down)\n", baselined)
	}
	if len(fresh) > 0 {
		return 1
	}
	return 0
}

// writeBaselineFile records one fingerprint per line with a human-readable
// trailing comment; readBaselineFile only consumes the first field.
func writeBaselineFile(path string, diags []lint.Diagnostic) error {
	var b strings.Builder
	b.WriteString("# canonvet baseline: fingerprints of known findings; first field per line is authoritative.\n")
	for _, d := range diags {
		fmt.Fprintf(&b, "%s %s %s:%d %s\n", d.Fingerprint, d.Check, filepath.Base(d.File), d.Line, d.Message)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readBaselineFile parses a baseline file: blank lines and #-comments are
// skipped, the first whitespace-separated field of every other line is a
// fingerprint.
func readBaselineFile(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	known := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		known[strings.Fields(line)[0]] = true
	}
	return known, sc.Err()
}

// targetDirs resolves command-line package patterns to directories. The
// pattern language is deliberately small: "./..." (or no argument) means the
// whole module; "dir/..." walks a subtree; anything else is a single
// directory relative to the working directory.
func targetDirs(root, cwd string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		return lint.GoDirs(root)
	}
	seen := make(map[string]bool)
	var out []string
	add := func(dirs ...string) {
		for _, d := range dirs {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := lint.GoDirs(root)
			if err != nil {
				return nil, err
			}
			add(dirs...)
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(cwd, strings.TrimSuffix(pat, "/..."))
			dirs, err := lint.GoDirs(base)
			if err != nil {
				return nil, err
			}
			add(dirs...)
		default:
			add(filepath.Join(cwd, pat))
		}
	}
	return out, nil
}
