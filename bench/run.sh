#!/usr/bin/env bash
# run.sh — build canond and canonblast from this checkout, then run the
# benchmark. Everything the build and the run leave behind lives under
# .bench_build/ in the checkout (binaries, the Go build cache, node data
# directories), so a run touches nothing outside it.
#
# Usage (from anywhere): bash bench/run.sh --workload lookup_hier --seed 1 --seconds 22 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# Build time is not part of setup_s: both binaries exist before the clock starts.
go build -o "$out/canond" ./cmd/canond
go build -C bench -o "$out/canonblast" .
exec "$out/canonblast" -canond "$out/canond" "$@"
