#!/usr/bin/env bash
# lint.sh — the project's full static-analysis gate, runnable locally and in
# CI: gofmt (fail on any unformatted file), go vet, the line count that keeps
# the analyzer smaller than the node it guards, the ban on function-style
# sync/atomic calls, and canonvet (the project-specific analyzer in
# cmd/canonvet).
#
# Usage:
#   ./scripts/lint.sh                # everything
#   ./scripts/lint.sh --no-canonvet  # formatting, go vet, the line count and
#                                    # the atomics ban only
#                                    # (CI splits the canonvet step out to
#                                    # archive its JSON)
#
# Exit codes: 0 clean, 1 findings/format/vet failures, 2 canonvet could not
# even load or type-check the module (a broken analyzer or broken tree — CI
# must surface this differently from ordinary findings).
set -u

cd "$(dirname "$0")/.."

run_canonvet=1
for arg in "$@"; do
  case "$arg" in
    --no-canonvet) run_canonvet=0 ;;
    *)
      echo "lint.sh: unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  fail=1
fi

echo "== go vet =="
if ! go vet ./...; then
  fail=1
fi

echo "== analyzer size =="
# The analyzer must stay smaller than the node it guards (ROADMAP aim 2):
# non-test Go lines of internal/lint against internal/netnode.
count_go() { find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l; }
lint_lines=$(count_go internal/lint)
node_lines=$(count_go internal/netnode)
echo "internal/lint $lint_lines lines, internal/netnode $node_lines lines"
if [ "$lint_lines" -gt "$node_lines" ]; then
  echo "lint.sh: internal/lint ($lint_lines) is larger than internal/netnode ($node_lines)" >&2
  fail=1
fi

echo "== typed atomics =="
# Shared counters and pointers use the sync/atomic types (atomic.Uint64,
# atomic.Pointer, ...), so a plain load or store of one does not compile.
# The function-style calls on a plain field would let one slip in unseen.
git grep -nE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' \
  -- '*.go' ':!*_test.go' ':!internal/lint/testdata'
case $? in
  0)
    echo "lint.sh: function-style sync/atomic call above; use an atomic type instead" >&2
    fail=1
    ;;
  1) ;; # no match
  *)
    echo "lint.sh: git grep failed; run lint.sh inside a git checkout" >&2
    fail=1
    ;;
esac

if [ "$run_canonvet" = 1 ]; then
  echo "== canonvet =="
  SECONDS=0
  go run ./cmd/canonvet ./...
  vet_status=$?
  elapsed=$SECONDS
  # Timing budget: loading, type-checking and the call-graph fixpoint must
  # keep a full-module run under 90 seconds, or the analyzer stops being something anyone runs
  # before committing. Budget breaches fail the gate like findings do.
  echo "canonvet: full-module run took ${elapsed}s (budget 90s)"
  if [ "$elapsed" -ge 90 ]; then
    echo "lint.sh: canonvet timing budget exceeded: ${elapsed}s >= 90s" >&2
    fail=1
  fi
  case "$vet_status" in
    0) ;;
    1)
      echo "lint.sh: canonvet reported findings" >&2
      fail=1
      ;;
    *)
      # Exit 2 (or anything unexpected) means the analyzer failed to load or
      # type-check the module: not a lint finding, a broken build. Propagate
      # it verbatim so CI can tell the two apart.
      echo "lint.sh: canonvet failed to run (exit $vet_status): load/type-check error, not a finding" >&2
      exit 2
      ;;
  esac
fi

if [ "$fail" != 0 ]; then
  echo "lint.sh: FAILED" >&2
  exit 1
fi
echo "lint.sh: ok"
