#!/usr/bin/env bash
# lint.sh — the project's full static-analysis gate, runnable locally and in
# CI: gofmt (fail on any unformatted file), go vet, the size ceiling of the
# analyzer, the ban on function-style sync/atomic calls, the guard that
# keeps every wire call behind a deadline and a dedup nonce, and canonvet
# (the project-specific analyzer in cmd/canonvet, 7 checks).
#
# Usage:
#   ./scripts/lint.sh                # everything
#   ./scripts/lint.sh --no-canonvet  # formatting, go vet, the size ceiling,
#                                    # the atomics ban and the wire-call
#                                    # guard only
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
# A fixed ceiling on the analyzer's non-test Go lines (ROADMAP aim 2): the
# call-graph engine it once carried does not creep back in.
lint_ceiling=2000
lint_lines=$(find internal/lint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)
echo "internal/lint $lint_lines lines (ceiling $lint_ceiling)"
if [ "$lint_lines" -gt "$lint_ceiling" ]; then
  echo "lint.sh: internal/lint ($lint_lines lines) is over its ceiling of $lint_ceiling" >&2
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

echo "== wire calls =="
# Transport.Call is made in exactly two places, and both bound it in time:
# Node.call (stats.go) bounds every attempt, Client.call (client.go) falls
# back to clientCallTimeout when its context has no deadline. Both stamp a
# dedup nonce on any envelope that lacks one, so this guard also keeps every
# request deduplicable at its receiver (TestClientStampsNonces,
# TestTracedLookupDedupUnderDuplication). The transport
# decorators in internal/transport and the benchmark harness in bench/ wrap
# a Transport and pass their caller's context on.
allowed_calls='^internal/netnode/stats\.go:[0-9]+:\s+resp, err := n\.tr\.Call\(attemptCtx, addr, msg\)$|^internal/netnode/client\.go:[0-9]+:\s+return c\.tr\.Call\(ctx, addr, msg\)$'
calls=$(git grep -nE '\.Call\(' -- '*.go' ':!*_test.go' ':!internal/transport' ':!bench' ':!internal/lint/testdata')
case $? in
  0 | 1) ;;
  *)
    echo "lint.sh: git grep failed; run lint.sh inside a git checkout" >&2
    fail=1
    ;;
esac
stray=$(printf '%s\n' "$calls" | grep -vE "$allowed_calls" | grep -v '^$')
if [ -n "$stray" ] || [ "$(printf '%s\n' "$calls" | grep -cE "$allowed_calls")" != 2 ]; then
  echo "$stray"
  echo "lint.sh: Transport.Call outside Node.call and Client.call (or one of them gone); send through one of them so the call has a deadline" >&2
  fail=1
fi

if [ "$run_canonvet" = 1 ]; then
  echo "== canonvet =="
  SECONDS=0
  go run ./cmd/canonvet ./...
  vet_status=$?
  elapsed=$SECONDS
  # Timing budget: loading and type-checking must keep a full-module run
  # under 90 seconds, or the analyzer stops being something anyone runs
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
