#!/usr/bin/env bash
# geometry-smoke.sh — end-to-end smoke test of the pluggable routing
# geometries (docs/GEOMETRY.md), and of a cluster that is correct on its
# joins alone.
#
# For each geometry (crescendo, kandy, cacophony), boots a real six-node
# canond cluster over TCP — two nodes in each of mit/csail, stanford/cs
# and stanford/ee — with -geometry set and -stabilize 1h, so that no
# maintenance round runs while the script does. Each node is started as soon
# as the previous one printed "listening on" (canond prints it once Join has
# returned); nothing sleeps to let the cluster settle. Then, on the joins
# alone:
#   * puts a batch of values through different nodes and gets every value
#     back through every node (routing + hierarchical storage work end to
#     end under the geometry's links and next-hop rule),
#   * asserts all six nodes agree on each key's owner, and the members of
#     every domain (stanford, stanford/cs, stanford/ee, mit, mit/csail)
#     agree on each key's owner inside that domain (the geometry changed the
#     links, not the ownership rule — the invariant that makes
#     mixed-geometry clusters correct).
#
# Usage: geometry-smoke.sh [path-to-canond] [path-to-canonctl]
set -euo pipefail

CANOND=${1:-./canond}
CANONCTL=${2:-./canonctl}
BASE=7271
PIDS=()
LOGS=$(mktemp -d)

cleanup() {
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$LOGS"
}
trap cleanup EXIT

# Fixed node ids and join order, so each run is deterministic. With these,
# stanford/ee's registry key changes owner between its two members' joins:
# unless a join hands the registry on, 4000908327 founds a second
# stanford/ee ring and the level-scoped agreement below fails.
IDS=(1369035984 385287196 1473401147 2910593811 4000908327 2548271526)
DOMAINS=(mit/csail stanford/cs stanford/ee mit/csail stanford/ee stanford/cs)
N=${#IDS[@]}
KEYS=(42 7777 123456789 3405691582 18446744073709551615 31337 2147483647 4000000000)

# start_node I [canond flags...] starts node I and returns once its Join has
# returned, failing if it exits or takes more than 10 s.
start_node() {
  local i=$1
  shift
  "$CANOND" -listen "127.0.0.1:$((BASE + i))" -id "${IDS[$i]}" -domain "${DOMAINS[$i]}" \
    -geometry "$GEOM" -stabilize 1h "$@" >"$LOGS/node$i" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  for _ in $(seq 200); do
    grep -q "listening on" "$LOGS/node$i" && return 0
    kill -0 "$pid" 2>/dev/null || {
      echo "[$GEOM] node $i exited before joining: $(cat "$LOGS/node$i")" >&2
      exit 1
    }
    sleep 0.05
  done
  echo "[$GEOM] node $i did not join within 10 s" >&2
  exit 1
}

# owner J KEY DOMAIN prints "node <id> (<addr>)", the owner of KEY in DOMAIN
# as node J resolves it.
owner() {
  # "owner of K in "D": node <id> (<addr>) via <n> hops" -> "node <id> (<addr>)"
  "$CANONCTL" -node "127.0.0.1:$((BASE + $1))" lookup "$2" "$3" |
    sed 's/.*: \(node [0-9]* ([^)]*)\).*/\1/'
}

for GEOM in crescendo kandy cacophony; do
  echo "== [$GEOM] booting a six-node cluster, each node once the previous one joined"
  start_node 0
  for ((i = 1; i < N; i++)); do
    start_node "$i" -join "127.0.0.1:$BASE"
  done

  echo "== [$GEOM] put through each node, get back through every node"
  for i in "${!KEYS[@]}"; do
    "$CANONCTL" -node "127.0.0.1:$((BASE + i % N))" put "${KEYS[$i]}" "$GEOM-$i"
  done
  for i in "${!KEYS[@]}"; do
    for ((j = 0; j < N; j++)); do
      got=$("$CANONCTL" -node "127.0.0.1:$((BASE + j))" get "${KEYS[$i]}")
      [ "$got" = "$GEOM-$i" ] || {
        echo "[$GEOM] GET MISMATCH: key ${KEYS[$i]} via node $j returned '$got', want '$GEOM-$i'" >&2
        exit 1
      }
    done
  done

  echo "== [$GEOM] every domain's members agree on every key's owner in it"
  declare -A first=()
  for key in "${KEYS[@]}"; do
    for ((j = 0; j < N; j++)); do
      # The root, then each domain on node j's chain: stanford, stanford/cs.
      prefixes=("") prefix=""
      IFS=/ read -ra parts <<<"${DOMAINS[$j]}"
      for part in "${parts[@]}"; do
        prefix=${prefix:+$prefix/}$part
        prefixes+=("$prefix")
      done
      for prefix in "${prefixes[@]}"; do
        got=$(owner "$j" "$key" "$prefix")
        want=${first["$key|$prefix"]:-}
        if [ -z "$want" ]; then
          first["$key|$prefix"]=$got
        elif [ "$got" != "$want" ]; then
          echo "[$GEOM] OWNER DISAGREEMENT: key $key in \"$prefix\" is '$want' per an earlier member but '$got' per node $j" >&2
          exit 1
        fi
      done
    done
  done
  unset first

  echo "== [$GEOM] OK; tearing the cluster down"
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  PIDS=()
done

echo "geometry smoke: OK (crescendo, kandy and cacophony route, store and agree on ownership at every level on their joins alone)"
