#!/usr/bin/env bash
# telemetry-smoke.sh — end-to-end smoke test of the observability stack.
#
# Boots a real five-node canond cluster over TCP on the default wire, with
# the admin endpoint enabled on every node (the bootstrap's is the one the
# later checks read), runs puts/gets and a traced lookup through canonctl,
# then asserts:
#   * the put and the get were routed operations: summed over the five nodes'
#     /metrics, canon_rpc_received_total{type="put"} and {type="get"} are
#     nonzero, and the entry node of the get observed canon_get_hops,
#   * /metrics serves Prometheus text with nonzero canon_rpc_sent_total and
#     canon_transport_calls_total counters,
#   * the canon_transport_mux_* series prove connections were dialed and
#     frames moved,
#   * canonctl trace prints an owner and per-hop spans,
#   * /debug/trace/ archives the trace and serves it back by id,
#   * a pre-mux length-prefixed JSON frame sent at the bootstrap node is
#     refused: the node closes the connection without answering, bumps
#     canon_transport_mux_rejected_total and keeps answering canonctl ping.
# Then boots a second, three-node cluster with -replicas 2 and asserts the
# canon_replica_* series exist, that writes were pushed to a replica, that
# the cluster goes quiet once converged — no dirty keys, and
# canon_replica_full_passes_total stops growing — and that anti-entropy then
# agrees with what replication placed: canonctl repair at each node compares
# its replica partners and moves no record.
#
# Usage: telemetry-smoke.sh [path-to-canond] [path-to-canonctl]
set -euo pipefail

CANOND=${1:-./canond}
CANONCTL=${2:-./canonctl}
BASE=7141
ADMIN=9141
RBASE=7161 # the replicated three-node cluster
RADMIN=9161
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== booting five nodes (bootstrap admin at :$ADMIN)"
"$CANOND" -listen "127.0.0.1:$BASE" -domain west/a -admin "127.0.0.1:$ADMIN" \
  -trace-sample 0.5 -stabilize 200ms &
PIDS+=($!)
sleep 1
domains=(west/a west/b east/a east/b)
for i in 1 2 3 4; do
  "$CANOND" -listen "127.0.0.1:$((BASE + i))" -domain "${domains[$((i % 4))]}" \
    -join "127.0.0.1:$BASE" -admin "127.0.0.1:$((ADMIN + i))" -stabilize 200ms &
  PIDS+=($!)
  sleep 0.5
done
echo "== letting stabilization run"
sleep 4

echo "== put/get through the cluster"
"$CANONCTL" -node "127.0.0.1:$((BASE + 2))" put 42 smoke-value
got=$("$CANONCTL" -node "127.0.0.1:$((BASE + 3))" get 42)
[ "$got" = "smoke-value" ] || { echo "get returned '$got', want 'smoke-value'" >&2; exit 1; }
"$CANONCTL" -node "127.0.0.1:$((BASE + 3))" get -v 42 | grep -q '^route: [0-9]* hops, answered at level [0-9]' \
  || { echo "canonctl get -v printed no route" >&2; exit 1; }

echo "== the put and the get were routed messages"
all_metrics=$(for i in 0 1 2 3 4; do curl -sf "http://127.0.0.1:$((ADMIN + i))/metrics"; done)
for typ in put get; do
  echo "$all_metrics" | awk -v series="canon_rpc_received_total{type=\"$typ\"}" \
    'index($0, series) == 1 {s += $NF} END {exit !(s > 0)}' \
    || { echo "no node served a routed $typ: canon_rpc_received_total{type=\"$typ\"} is zero everywhere" >&2; exit 1; }
done
curl -sf "http://127.0.0.1:$((ADMIN + 3))/metrics" | awk '/^canon_get_hops_count/ {s += $NF} END {exit !(s > 0)}' \
  || { echo "the get's entry node observed no canon_get_hops" >&2; exit 1; }

echo "== traced lookup"
trace_out=$("$CANONCTL" -node "127.0.0.1:$BASE" trace 3405691582)
echo "$trace_out"
echo "$trace_out" | grep -q "owner node" || { echo "trace output has no owner" >&2; exit 1; }
echo "$trace_out" | grep -q "hop 0" || { echo "trace output has no spans" >&2; exit 1; }
trace_id=$(echo "$trace_out" | sed -n 's/^trace \([0-9a-f]*\) .*/\1/p')
[ -n "$trace_id" ] || { echo "could not parse trace id" >&2; exit 1; }

echo "== /metrics serves nonzero counters"
metrics=$(curl -sf "http://127.0.0.1:$ADMIN/metrics")
echo "$metrics" | awk '/^canon_rpc_sent_total/ {s += $NF} END {exit !(s > 0)}' \
  || { echo "canon_rpc_sent_total missing or zero" >&2; exit 1; }
echo "$metrics" | awk '/^canon_transport_calls_total/ {s += $NF} END {exit !(s > 0)}' \
  || { echo "canon_transport_calls_total missing or zero" >&2; exit 1; }
echo "$metrics" | grep -q '^canon_lookup_hops_count' \
  || { echo "canon_lookup_hops histogram missing" >&2; exit 1; }
# The mux series must show the bootstrap node dialed and moved frames.
echo "$metrics" | awk '/^canon_transport_mux_dials_total/ {s += $NF} END {exit !(s > 0)}' \
  || { echo "canon_transport_mux_dials_total missing or zero" >&2; exit 1; }
echo "$metrics" | awk '/^canon_transport_mux_frames_total/ {s += $NF} END {exit !(s > 0)}' \
  || { echo "canon_transport_mux_frames_total missing or zero" >&2; exit 1; }

echo "== /debug/trace/ archives the trace"
curl -sf "http://127.0.0.1:$ADMIN/debug/trace/$trace_id" | grep -q "$trace_id" \
  || { echo "trace $trace_id not served back by /debug/trace/" >&2; exit 1; }

echo "== /status still answers"
curl -sf "http://127.0.0.1:$ADMIN/status" | grep -q '"info"\|"Info"\|{' \
  || { echo "/status unusable" >&2; exit 1; }

echo "== a pre-mux JSON frame is refused"
rejected() {
  curl -sf "http://127.0.0.1:$ADMIN/metrics" | awk '/^canon_transport_mux_rejected_total/ {print $NF}'
}
before=$(rejected)
exec 3<>"/dev/tcp/127.0.0.1/$BASE"
printf '\x00\x00\x00\x0f{"type":"ping"}' >&3
# read: 0 = the node answered, 1 = it closed the connection, >128 = timeout.
rc=0
IFS= read -r -t 5 -n 1 -u 3 _ || rc=$?
exec 3<&- 3>&-
[ "$rc" -eq 1 ] || { echo "node did not close a legacy JSON frame unanswered (read status $rc)" >&2; exit 1; }
[ "$(rejected)" -gt "$before" ] \
  || { echo "canon_transport_mux_rejected_total did not grow past $before" >&2; exit 1; }
"$CANONCTL" -node "127.0.0.1:$BASE" ping >/dev/null \
  || { echo "node stopped answering after the refused frame" >&2; exit 1; }

echo "== three replicated nodes (admin at :$RADMIN)"
"$CANOND" -listen "127.0.0.1:$RBASE" -admin "127.0.0.1:$RADMIN" -replicas 2 -stabilize 200ms &
PIDS+=($!)
sleep 1
for i in 1 2; do
  "$CANOND" -listen "127.0.0.1:$((RBASE + i))" -join "127.0.0.1:$RBASE" -replicas 2 -stabilize 200ms &
  PIDS+=($!)
  sleep 0.5
done
sleep 2
for key in 1 1000000000 2000000000 3000000000 4000000000; do
  "$CANONCTL" -node "127.0.0.1:$((RBASE + 1))" put "$key" "replica-$key"
done

# series NAME: the summed value of a metric family on the replicated node.
series() {
  local text
  text=$(curl -sf "http://127.0.0.1:$RADMIN/metrics")
  echo "$text" | awk -v name="$1" \
    '$1 == name || index($1, name "{") == 1 {s += $NF; seen = 1} END {if (!seen) exit 1; print s}'
}
for name in canon_replica_dirty_keys canon_replica_push_failures_total canon_replica_full_passes_total \
  'canon_replica_pushes_total{kind="chain"}' 'canon_replica_pushes_total{kind="handoff"}'; do
  series "$name" >/dev/null || { echo "$name missing from /metrics" >&2; exit 1; }
done

echo "== the converged cluster goes quiet"
quiet=0
for _ in $(seq 1 20); do
  passes=$(series canon_replica_full_passes_total)
  sleep 1 # five stabilization rounds
  if [ "$(series canon_replica_dirty_keys)" = 0 ] && [ "$(series canon_replica_full_passes_total)" = "$passes" ]; then
    quiet=1
    break
  fi
done
[ "$quiet" = 1 ] || { echo "full passes still growing or keys still dirty after 20s" >&2; exit 1; }
[ "$(series canon_replica_full_passes_total)" -gt 0 ] \
  || { echo "no full pass ever ran: joins must force one" >&2; exit 1; }
[ "$(series canon_store_items)" -gt 0 ] \
  || { echo "the replicated node stores nothing: no write or replica reached it" >&2; exit 1; }

echo "== anti-entropy on the converged cluster moves nothing"
for i in 0 1 2; do
  out=$("$CANONCTL" -node "127.0.0.1:$((RBASE + i))" repair)
  echo "$out" | grep -Eq '^repair: [1-9][0-9]* partners, 0 records pushed, 0 pulled$' \
    || { echo "repair at node $i: '$out', want partners compared and 0 records pushed, 0 pulled" >&2; exit 1; }
done

echo "telemetry smoke: OK"
