#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end cluster exercise on loopback.
#
# Builds the binaries, starts three shard primaries (each on its own
# segment store, -data), one read replica of shard 0, and a vdbcoord
# coordinator in front. Ingests the corpus through the coordinator, waits for
# the replica to catch up, then drives the coordinator with vdbbench
# -cluster. Unless CLUSTER_SMOKE_KILL=0, one shard primary is killed
# mid-run; the run must stay green (no 5xx, no transport errors) while
# degraded answers are flagged, and afterwards the coordinator's status
# must show the dead node and a nonzero partial count. The counters
# come from the flat JSON object on vdbbench's last stdout line.
#
#   ./scripts/cluster_smoke.sh                 # the CI smoke test
#   CLUSTER_SMOKE_KILL=0 ./scripts/cluster_smoke.sh   # healthy-run mode
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${CLUSTER_SMOKE_DIR:-bench-out/cluster-smoke}
KILL=${CLUSTER_SMOKE_KILL:-1}
DURATION=${CLUSTER_SMOKE_DURATION:-8s}
COORD=127.0.0.1:19090
SHARD0=127.0.0.1:19101
SHARD1=127.0.0.1:19102
SHARD2=127.0.0.1:19103
REPLICA0=127.0.0.1:19111

log()  { echo "cluster-smoke: $*"; }
fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

rm -rf "$OUT"
mkdir -p "$OUT"

pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

log "building binaries"
go build -o "$OUT/vdbserver" ./cmd/vdbserver
go build -o "$OUT/vdbcoord"  ./cmd/vdbcoord
go build -o "$OUT/vdbbench"  ./cmd/vdbbench
go build -o "$OUT/synthgen"  ./cmd/synthgen

log "rendering the 22-clip Table 5 corpus at scale 0.02"
"$OUT/synthgen" -out "$OUT/corpus" -set table5 -scale 0.02 >/dev/null

wait_ready() { # host:port
    for _ in $(seq 1 100); do
        curl -sf "http://$1/api/health" >/dev/null && return 0
        sleep 0.2
    done
    fail "$1 never became healthy"
}

log "starting 3 shard primaries + 1 replica + coordinator"
shard_pids=()
for i in 0 1 2; do
    addr_var="SHARD$i"
    "$OUT/vdbserver" -data "$OUT/shard$i" \
        -addr "${!addr_var}" >"$OUT/shard$i.log" 2>&1 &
    shard_pids[$i]=$!
    pids+=("${shard_pids[$i]}")
done
"$OUT/vdbserver" -replica-of "http://$SHARD0" -replica-poll 100ms \
    -addr "$REPLICA0" >"$OUT/replica0.log" 2>&1 &
pids+=($!)
for a in "$SHARD0" "$SHARD1" "$SHARD2" "$REPLICA0"; do wait_ready "$a"; done

"$OUT/vdbcoord" -addr "$COORD" -probe 250ms \
    -shard "http://$SHARD0,http://$REPLICA0" \
    -shard "http://$SHARD1" \
    -shard "http://$SHARD2" >"$OUT/coord.log" 2>&1 &
pids+=($!)
wait_ready "$COORD"

log "ingesting the corpus through the coordinator"
ingested=0
for f in "$OUT"/corpus/*.vdbf; do
    name=$(basename "$f" .vdbf)
    curl -sf -X POST --data-binary @"$f" \
        "http://$COORD/api/clips?name=$name" >/dev/null \
        || fail "ingest of $name through the coordinator"
    ingested=$((ingested + 1))
done
listed=$(curl -sf "http://$COORD/api/clips" | grep -o '"name"' | wc -l)
[ "$listed" -eq "$ingested" ] \
    || fail "coordinator lists $listed clips, ingested $ingested"
log "ingested $ingested clips, merged listing agrees"
for i in 0 1 2; do
    addr_var="SHARD$i"
    curl -sf "http://${!addr_var}/api/health" | grep -q '"clips": *0' \
        && fail "shard $i owns no clips — ring did not spread the corpus"
done

# Convergence is byte-exact: maxLagBytes reaches 0 only once the
# replica has applied every shipped WAL record.
log "waiting for replica catch-up"
for _ in $(seq 1 100); do
    if curl -sf "http://$COORD/api/cluster/status" \
        | grep -q '"maxLagBytes": *0'; then
        caught_up=1
        break
    fi
    sleep 0.2
done
[ "${caught_up:-0}" -eq 1 ] || fail "replica never caught up (maxLagBytes != 0)"

log "driving the coordinator with vdbbench for $DURATION (kill=$KILL)"
"$OUT/vdbbench" -cluster -target "http://$COORD" \
    -concurrency 8 -duration "$DURATION" >"$OUT/vdbbench.out" &
bench=$!
pids+=("$bench")
if [ "$KILL" -eq 1 ]; then
    sleep 3
    log "killing shard 2 mid-run"
    kill "${shard_pids[2]}"
fi
wait "$bench" || fail "vdbbench exited non-zero"
cat "$OUT/vdbbench.out"

result=$(tail -n 1 "$OUT/vdbbench.out")
jq -e 'type == "object"' <<<"$result" >/dev/null || fail "vdbbench printed no result line"
metric() { # name -> value
    jq -r --arg k "$1" '.[$k] // empty' <<<"$result"
}
for m in http_5xx transport_errors; do
    v=$(metric "$m")
    [ "${v:-missing}" = "0" ] || fail "$m = ${v:-missing}, want 0 (coordinator must absorb the failure)"
done

status=$(curl -sf "http://$COORD/api/cluster/status")
if [ "$KILL" -eq 1 ]; then
    partial=$(metric partial_answers)
    awk -v p="${partial:-0}" 'BEGIN { exit (p + 0 > 0) ? 0 : 1 }' \
        || fail "no partial answers recorded although a shard died mid-run"
    echo "$status" | grep -q '"up": *false' \
        || fail "coordinator status does not show the killed shard down"
    echo "$status" | grep -Eq '"partialQueries": *[1-9]' \
        || fail "coordinator status shows no partial queries"
    log "shard death degraded gracefully: $partial partial answers, 0 5xx"
else
    partial=$(metric partial_answers)
    [ "${partial:-missing}" = "0" ] \
        || fail "healthy run produced $partial partial answers, want 0"
    log "healthy run: 0 partial answers"
fi

# The surviving shard 0's replica must still be converged after the run.
echo "$status" | grep -q '"maxLagBytes": *0' \
    || fail "replica lag nonzero after the run: $(echo "$status" | grep maxLagBytes)"

log "OK — result at $OUT/vdbbench.out"
