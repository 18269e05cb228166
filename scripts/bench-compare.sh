#!/usr/bin/env bash
# bench-compare.sh — run the routing-hot-path, store-path, store-layer,
# replication-round and wire-encode benchmarks, record their medians, and gate
# against a committed baseline.
#
# Usage:
#   BENCH_BASELINE=BENCH_PR7.json ./scripts/bench-compare.sh [output.json]
#   BENCH_BASELINE=new            ./scripts/bench-compare.sh BENCH_PR7.json
#
# BENCH_BASELINE is REQUIRED and names the baseline JSON to compare against;
# the sentinel value "new" records a fresh baseline without comparing (use it
# once, commit the output, and CI gates every later PR against it). The
# script fails loudly when the variable is missing or the file is unreadable
# — a bench gate that silently skips its comparison is worse than none.
# Relative paths are taken from the repository root. The output defaults to
# ${TMPDIR:-/tmp}/bench-compare.json, and an output that resolves to the
# baseline is refused (exit 2): the run would overwrite the baseline before
# reading it and then gate against its own numbers.
#
# Benchmarks run BENCH_COUNT times each (default 10) and the per-benchmark
# MEDIAN of ns/op, B/op and allocs/op is recorded — medians because CI
# machines are noisy and a single hot outlier must not fail (or pass) a gate.
#
# Gates, in order:
#   1. store_layer — the allocs/op of the internal/canonstore benchmarks
#      (WAL put, Put+Sync at 1/4/16 writers, replay, the compaction stall,
#      Merkle build and diff) stay at or below the ceilings pinned below.
#      Each ceiling is the measured value, plus one or two for replay and
#      compaction: those allocate megabytes per op, so the runtime's once
#      per GC cycle allocations show up as 36-38 (compaction) or
#      11092-11093 (replay) with no code change. An allocation per record
#      would add thousands. Their ns/op is recorded, not gated: it is
#      dominated by fsync and the disk.
#   2. replicate_quiescent — the absolute budget of the replication step of
#      a stabilization round on a converged node with an unchanged view
#      (BenchmarkReplicateOnceQuiescent): it sends zero RPCs, and its median
#      ns/op with 10 000 stored entries is within 2x of the median with
#      1 000 — the round costs what was written, not what is stored.
#   3. replicate_dirty — the absolute budget of a round with dirty keys
#      (BenchmarkReplicateOnceDirty: an owner at ReplicationFactor 2 and 3
#      re-sends 100 and 1 000 dirty keys, whose records fit one store2
#      batch): per round it sends store2/op = partners x batches = RF-1
#      RPCs and its partners run fsyncs/op = RF-1 barriers, the same at
#      both key counts — a round costs per destination, not per key.
#   4. routed_ops — the absolute budgets of the routed layer
#      (BenchmarkRoutedLookup / BenchmarkRoutedGet / BenchmarkRoutedPut, a
#      64-node bus cluster driven through one Client): an op's rpcs/op — the
#      client's one request plus every request any node sends for it — is at
#      most the mean hops of a global walk to the owner from the same entry
#      nodes for the same keys (hops/op, reported by the same benchmark) plus
#      one: one routed message per op, no second trip. A lookup may stop a
#      hop short of the owner (its successor-list answer), never past it.
#      And BenchmarkForwardDecision64Snapshot, the forwarding decision all
#      routed messages share, still allocates nothing under any of the three
#      geometries. Both hold on every run, baseline or not.
#   5. body_codec — the portable part of the body-codec layer
#      (BenchmarkBodyCodec, the field walks of internal/netnode/binwire*.go):
#      every encode is 0 allocs/op and every decode allocates exactly what
#      the hand-written decoders it replaced did (the strings, value bytes
#      and slices of the body and nothing else). ns/op is recorded, not
#      gated: it is tens of nanoseconds and swings with the machine. The
#      get and put decodes carry the route header too, but an untraced
#      one's empty trace and absent span list allocate nothing, so the
#      counts are those of the bodies without it. The store2 body is a
#      batch since wire version 8; the benchmark's one-record batch decodes
#      in 4 allocs, the record's 3 plus the entry slice.
#   6. vs-baseline: any GATED benchmark whose allocs/op increased at all
#      fails the run, and a gated benchmark present in the baseline but
#      missing from the run fails too (deleting a benchmark must be an
#      explicit baseline update). The gated set is the snapshot forwarding
#      decision, the lookup saturation macro-bench, the routed get and put
#      (the forwarder every routed message takes, and the owner's read and
#      apply, end to end through a 64-node cluster), the binary envelope
#      encoder and decoder, and the node-local store apply (pinned at ZERO)
#      and fetch paths. allocs/op is deterministic; ns/op is recorded and
#      printed but never gated, because it swings far past any useful bound
#      with no code change (+43% to +53% on both sides of one comparison).
#      The TCP round trips are recorded only, BenchmarkRoundTrip64DeepBinary
#      among them: its handler recurses past a new goroutine's 2 KiB stack,
#      as a node's serve chain does, so its ns/op shows what the serve side
#      pays to grow a stack per request (printed as serve_stack, ungated).
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ -z "${BENCH_BASELINE:-}" ]]; then
	{
		echo "bench-compare.sh: BENCH_BASELINE is not set; refusing to run without a comparison target."
		echo "  BENCH_BASELINE=BENCH_PR7.json $0    # gate against the committed baseline (what CI does)"
		echo "  BENCH_BASELINE=new $0               # record a fresh baseline, no comparison"
	} >&2
	exit 2
fi
if [[ "$BENCH_BASELINE" != "new" && ! -r "$BENCH_BASELINE" ]]; then
	echo "bench-compare.sh: baseline '$BENCH_BASELINE' does not exist or is unreadable." >&2
	exit 2
fi

out="${1:-${TMPDIR:-/tmp}/bench-compare.json}"
if [[ "$BENCH_BASELINE" != "new" && "$(realpath -m -- "$out")" == "$(realpath -m -- "$BENCH_BASELINE")" ]]; then
	echo "bench-compare.sh: output '$out' is the baseline '$BENCH_BASELINE'; refusing to overwrite the baseline and gate against it. Name another output." >&2
	exit 2
fi
count="${BENCH_COUNT:-10}"
benchtime="${BENCH_TIME:-1s}"

# The forwarding benchmarks pin -cpu=4 so the 64-way contention shape is
# comparable across differently sized CI machines.
raw_netnode=$(go test -run '^$' -bench 'BenchmarkForwardDecision64|BenchmarkLookupSaturation' \
	-cpu=4 -benchmem -benchtime="$benchtime" -count="$count" ./internal/netnode/)
echo "$raw_netnode" >&2
# The store-path benchmarks run single-threaded (no -cpu pin): they measure
# the node-local apply/read paths, not contention shape.
raw_store=$(go test -run '^$' -bench 'BenchmarkStoreLocalMem|BenchmarkFetchLocalMem|BenchmarkReplicateOnce|BenchmarkRouted|BenchmarkBodyCodec' \
	-benchmem -benchtime="$benchtime" -count="$count" ./internal/netnode/)
echo "$raw_store" >&2
raw_transport=$(go test -run '^$' -bench 'BenchmarkEnvelope|BenchmarkRoundTrip' \
	-benchmem -benchtime="$benchtime" -count="$count" ./internal/transport/)
echo "$raw_transport" >&2
raw_canonstore=$(go test -run '^$' -bench 'BenchmarkDisk|BenchmarkMerkle' \
	-benchmem -benchtime="$benchtime" -count="$count" ./internal/canonstore/)
echo "$raw_canonstore" >&2

printf '%s\n%s\n%s\n%s\n' "$raw_netnode" "$raw_store" "$raw_transport" "$raw_canonstore" | awk -v out="$out" -v count="$count" '
function median(name, metric,    m, i, j, tmp, vals) {
	m = cnt[name]
	for (i = 0; i < m; i++) vals[i] = v[name, metric, i]
	for (i = 1; i < m; i++) {          # insertion sort; m <= count
		tmp = vals[i]
		for (j = i - 1; j >= 0 && vals[j] > tmp; j--) vals[j+1] = vals[j]
		vals[j+1] = tmp
	}
	if (m % 2) return vals[int(m/2)]
	return (vals[m/2 - 1] + vals[m/2]) / 2
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS/-cpu suffix
	if (!(name in cnt)) { order[n++] = name; cnt[name] = 0 }
	i = cnt[name]++
	for (f = 3; f < NF; f += 2) {        # value/unit pairs; custom units sit between ns/op and B/op
		if ($(f+1) == "ns/op") v[name, "ns", i] = $f
		else if ($(f+1) == "B/op") v[name, "b", i] = $f
		else if ($(f+1) == "allocs/op") v[name, "a", i] = $f
		else if ($(f+1) == "rpcs/op") v[name, "rpcs", i] = $f
		else if ($(f+1) == "hops/op") v[name, "hops", i] = $f
		else if ($(f+1) == "store2/op") v[name, "store2", i] = $f
		else if ($(f+1) == "fsyncs/op") v[name, "fsyncs", i] = $f
	}
}
END {
	printf "{\n" > out
	printf "  \"description\": \"hot-path benchmarks: lock-free epoch-snapshot forwarding, 64-way lookup saturation, node-local store apply and fetch, wire-envelope encode/decode, and the canonstore layer (WAL put and sync, replay, compaction, Merkle)\",\n" >> out
	printf "  \"command\": \"scripts/bench-compare.sh (medians of %d runs; forwarding benches at -cpu=4)\",\n", count >> out
	printf "  \"runs_per_benchmark\": %d,\n", count >> out
	printf "  \"benchmarks\": {\n" >> out
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, median(name, "ns"), median(name, "b"), median(name, "a"), (i < n-1 ? "," : "") >> out
	}
	printf "  },\n" >> out
	q1k = "BenchmarkReplicateOnceQuiescent/entries=1000"; q10k = "BenchmarkReplicateOnceQuiescent/entries=10000"
	qs = median(q10k, "ns") / median(q1k, "ns")
	qr = median(q1k, "rpcs") + median(q10k, "rpcs")
	printf "  \"replicate_quiescent_rpcs_per_op\": %s,\n", qr >> out
	printf "  \"replicate_quiescent_10k_over_1k\": %.2f,\n", qs >> out
	for (rf = 2; rf <= 3; rf++) {
		name = "BenchmarkReplicateOnceDirty/rf=" rf "/keys=1000"
		printf "  \"replicate_dirty_rf%d_store2_per_op\": %s,\n", rf, median(name, "store2") >> out
	}
	printf "  \"routed_lookup_rpcs_per_op\": %s,\n", median("BenchmarkRoutedLookup", "rpcs") >> out
	printf "  \"routed_get_rpcs_per_op\": %s,\n", median("BenchmarkRoutedGet", "rpcs") >> out
	printf "  \"routed_put_rpcs_per_op\": %s,\n", median("BenchmarkRoutedPut", "rpcs") >> out
	printf "  \"routed_lookup_hops_per_op\": %s\n", median("BenchmarkRoutedGet", "hops") >> out
	printf "}\n" >> out
	bad = 0
	nr = split("BenchmarkRoutedLookup BenchmarkRoutedGet BenchmarkRoutedPut", routed, " ")
	for (i = 1; i <= nr; i++) {
		name = routed[i]
		if (!(name in cnt)) {
			printf "FAIL: %s did not run\n", name > "/dev/stderr"
			bad = 1
			continue
		}
		rp = median(name, "rpcs"); hp = median(name, "hops")
		if (rp > hp + 1 + 0.0005) {
			printf "FAIL: %s sends %s rpcs/op; the budget is the mean lookup hops %s + 1\n", name, rp, hp > "/dev/stderr"
			bad = 1
		}
		printf "routed_ops: %s %s rpcs/op (budget %s hops/op + 1)\n", name, rp, hp > "/dev/stderr"
	}
	ng = split("crescendo kandy cacophony", geoms, " ")
	for (i = 1; i <= ng; i++) {
		name = "BenchmarkForwardDecision64Snapshot/" geoms[i]
		if (!(name in cnt) || median(name, "a") > 0) {
			printf "FAIL: %s did not run or allocates; the budget of the shared forwarding decision is zero allocs/op\n", name > "/dev/stderr"
			bad = 1
		}
	}
	# Decode allocs/op of the hand-written decoders the field walks replaced.
	nb = split("lookup:1 lookup_traced:9 get:1 put:3 store2:4 syncpull_64:193", bodies, " ")
	for (i = 1; i <= nb; i++) {
		split(bodies[i], kv, ":")
		enc = "BenchmarkBodyCodec/" kv[1] "/enc"; dec = "BenchmarkBodyCodec/" kv[1] "/dec"
		if (!(enc in cnt) || !(dec in cnt)) {
			printf "FAIL: BenchmarkBodyCodec/%s did not run\n", kv[1] > "/dev/stderr"
			bad = 1
			continue
		}
		if (median(enc, "a") > 0 || median(dec, "a") != kv[2] + 0) {
			printf "FAIL: body codec %s allocates %s/op encoding (budget 0) and %s/op decoding (budget exactly %s)\n", \
				kv[1], median(enc, "a"), median(dec, "a"), kv[2] > "/dev/stderr"
			bad = 1
		}
	}
	printf "body_codec: %d bodies at 0 allocs/op encode and the allocs/op of the hand-written decoders on decode\n", nb > "/dev/stderr"
	if (qr > 0) {
		printf "FAIL: a quiescent replication round sent %s RPCs per op; the budget is zero\n", qr > "/dev/stderr"
		bad = 1
	}
	if (qs > 2.0) {
		printf "FAIL: a quiescent replication round costs %.2fx more at 10000 stored entries than at 1000 (budget 2x)\n", qs > "/dev/stderr"
		bad = 1
	}
	printf "replicate_quiescent: %s rpcs/op (budget 0), 10k/1k entries %.2fx (budget 2.0x)\n", qr, qs > "/dev/stderr"
	# One batch per partner per round (see gate 3): partners x 1 batch.
	for (rf = 2; rf <= 3; rf++) {
		for (k = 100; k <= 1000; k *= 10) {
			name = "BenchmarkReplicateOnceDirty/rf=" rf "/keys=" k
			if (!(name in cnt)) {
				printf "FAIL: %s did not run\n", name > "/dev/stderr"
				bad = 1
				continue
			}
			s2 = median(name, "store2"); fs = median(name, "fsyncs")
			if (s2 != rf - 1 || fs != rf - 1) {
				printf "FAIL: %s sends %s store2 and its partners run %s fsyncs per round; the budget is %d of each (partners x one batch)\n", name, s2, fs, rf - 1 > "/dev/stderr"
				bad = 1
			}
			printf "replicate_dirty: %s %s store2/op, %s fsyncs/op (budget %d each)\n", name, s2, fs, rf - 1 > "/dev/stderr"
		}
	}
	# allocs/op ceilings of the store-layer benchmarks (see gate 1).
	ns = split("DiskPut/new_key:1 DiskPut/overwrite:0 DiskSync/writers=1:0 DiskSync/writers=4:0 DiskSync/writers=16:0 DiskReplay:11094 DiskCompact/live=2.5MB:39 DiskCompact/live=20MB:39 MerkleBuild:2 MerkleDiff:5", stores, " ")
	for (i = 1; i <= ns; i++) {
		split(stores[i], kv, ":")
		name = "Benchmark" kv[1]
		if (!(name in cnt)) {
			printf "FAIL: %s did not run\n", name > "/dev/stderr"
			bad = 1
		} else if (median(name, "a") > kv[2] + 0) {
			printf "FAIL: %s allocates %s/op (ceiling %s)\n", name, median(name, "a"), kv[2] > "/dev/stderr"
			bad = 1
		}
	}
	printf "store_layer: %d benchmarks within their allocs/op ceilings\n", ns > "/dev/stderr"
	deep = "BenchmarkRoundTrip64DeepBinary"
	if (deep in cnt)
		printf "serve_stack: %s %s ns/op, %s allocs/op (recorded, ungated)\n", deep, median(deep, "ns"), median(deep, "a") > "/dev/stderr"
	exit bad
}
'
echo "wrote $out" >&2

if [[ "$BENCH_BASELINE" == "new" ]]; then
	echo "BENCH_BASELINE=new: recorded baseline only, no comparison performed." >&2
	exit 0
fi

awk '
BEGIN {
	allocgated["BenchmarkForwardDecision64Snapshot/crescendo"] = 1
	allocgated["BenchmarkLookupSaturation"] = 1
	allocgated["BenchmarkRoutedGet"] = 1
	allocgated["BenchmarkRoutedPut"] = 1
	allocgated["BenchmarkEnvelopeEncodeBinary"] = 1
	allocgated["BenchmarkEnvelopeDecodeBinary"] = 1
	allocgated["BenchmarkStoreLocalMem"] = 1
	allocgated["BenchmarkFetchLocalMem"] = 1
}
# First file: the baseline. Second file: this run. Both are written by this
# script, so the per-benchmark lines are single-line JSON objects.
match($0, /"Benchmark[^"]*"/) {
	name = substr($0, RSTART + 1, RLENGTH - 2)
	ns = 0; allocs = 0
	if (match($0, /"ns_per_op": *[0-9.]+/))     { split(substr($0, RSTART, RLENGTH), f, ": *"); ns = f[2] + 0 }
	if (match($0, /"allocs_per_op": *[0-9.]+/)) { split(substr($0, RSTART, RLENGTH), f, ": *"); allocs = f[2] + 0 }
	if (NR == FNR) { base_ns[name] = ns; base_allocs[name] = allocs }
	else           { new_ns[name] = ns; new_allocs[name] = allocs }
}
END {
	bad = 0
	for (name in base_ns) {
		if (!(name in allocgated)) {
			if (name in new_ns)
				printf "info: %s p50 %.1f -> %.1f ns/op (ungated)\n", \
					name, base_ns[name], new_ns[name]
			continue
		}
		if (!(name in new_ns)) {
			printf "FAIL: %s is in the baseline but was not run — update the baseline explicitly if it was removed\n", name
			bad = 1
			continue
		}
		printf "info: %s p50 %.1f -> %.1f ns/op (alloc-gated only)\n", \
			name, base_ns[name], new_ns[name]
		if (new_allocs[name] > base_allocs[name]) {
			printf "FAIL: %s allocs/op increased: %d -> %d (any increase fails)\n", \
				name, base_allocs[name], new_allocs[name]
			bad = 1
		}
	}
	for (name in new_ns) if (!(name in base_ns))
		printf "note: %s is new (not in baseline %s)\n", name, base
	exit bad
}
' base="$BENCH_BASELINE" "$BENCH_BASELINE" "$out" >&2
echo "bench gate passed against $BENCH_BASELINE" >&2
