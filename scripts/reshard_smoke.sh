#!/usr/bin/env bash
# reshard_smoke.sh — online-resharding exercise on loopback.
#
# Builds the binaries, starts three shard primaries on segment stores
# (-data), one read replica of shard 0, and a vdbcoord coordinator with
# bounded-staleness replica reads enabled, plus a single-node control
# server holding the identical corpus. Ingests the corpus through the
# coordinator, then drives the coordinator with vdbbench -cluster while
# the bench itself grows the cluster to four shards mid-run via
# POST /api/cluster/reshard. Passing means the membership change was
# invisible to clients: zero 5xx and zero transport errors across the
# whole window, zero partial answers (the dual-read window dedupes, it
# does not degrade), the new shard owning clips and taking fan-out
# afterwards, replica reads observed within the staleness bound, and —
# the equivalence check — a spread of query answers byte-identical to
# the never-resharded control node throughout the run, migration
# included ("zero partials" cannot see a complete-looking answer that
# silently omits a moved clip), and the final merged listing identical
# too.
#
#   ./scripts/reshard_smoke.sh                  # the CI smoke test
#   RESHARD_SMOKE_DURATION=20s ./scripts/reshard_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${RESHARD_SMOKE_DIR:-bench-out/reshard-smoke}
DURATION=${RESHARD_SMOKE_DURATION:-10s}
COORD=127.0.0.1:19290
SHARD0=127.0.0.1:19201
SHARD1=127.0.0.1:19202
SHARD2=127.0.0.1:19203
SHARD3=127.0.0.1:19204
REPLICA0=127.0.0.1:19211
CONTROL=127.0.0.1:19280

log()  { echo "reshard-smoke: $*"; }
fail() { echo "reshard-smoke: FAIL: $*" >&2; exit 1; }

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

log "starting 4 shard primaries (3 in the ring + 1 spare), 1 replica, control, coordinator"
for i in 0 1 2 3; do
    addr_var="SHARD$i"
    "$OUT/vdbserver" -data "$OUT/shard$i" \
        -addr "${!addr_var}" >"$OUT/shard$i.log" 2>&1 &
    pids+=($!)
done
"$OUT/vdbserver" -replica-of "http://$SHARD0" -replica-poll 100ms \
    -addr "$REPLICA0" >"$OUT/replica0.log" 2>&1 &
pids+=($!)
"$OUT/vdbserver" -data "$OUT/control" -addr "$CONTROL" >"$OUT/control.log" 2>&1 &
pids+=($!)
for a in "$SHARD0" "$SHARD1" "$SHARD2" "$SHARD3" "$REPLICA0" "$CONTROL"; do wait_ready "$a"; done

# Replica reads on: rotated reads may hit the replica only while its
# known lag is 0 bytes (the strictest bound).
"$OUT/vdbcoord" -addr "$COORD" -probe 250ms -staleness-bound 0 \
    -shard "http://$SHARD0,http://$REPLICA0" \
    -shard "http://$SHARD1" \
    -shard "http://$SHARD2" >"$OUT/coord.log" 2>&1 &
pids+=($!)
wait_ready "$COORD"

log "ingesting the corpus through the coordinator and into the control node"
ingested=0
for f in "$OUT"/corpus/*.vdbf; do
    name=$(basename "$f" .vdbf)
    curl -sf -X POST --data-binary @"$f" \
        "http://$COORD/api/clips?name=$name" >/dev/null \
        || fail "ingest of $name through the coordinator"
    curl -sf -X POST --data-binary @"$f" \
        "http://$CONTROL/api/clips?name=$name" >/dev/null \
        || fail "ingest of $name into the control node"
    ingested=$((ingested + 1))
done
log "ingested $ingested clips into both"

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

# The coordinator wraps answers in {"matches": ..., "partial": ...};
# the control node answers the bare match array. Strip whitespace and
# the envelope, then require byte equality (the merger reproduces the
# single-node result order exactly).
unwrap() { tr -d ' \n\t' | sed -e 's/^{"matches"://' -e 's/,"partial":\(true\|false\)}$//' -e 's/^null$/[]/'; }
QUERIES=("varba=5&varoa=2" "varba=25&varoa=10" "varba=50&varoa=25" "varba=75&varoa=50" "varba=95&varoa=90")

# compare_until FILE: ask coordinator and control the fixed query set,
# round after round without pause, until FILE exists. The corpus does not
# change during the run, so every answer — before, during and after the
# migration — must equal the control's. Divergent queries are appended
# to divergent.txt; compare.count gets "rounds rounds-while-migrating".
compare_until() {
    local rounds=0 during=0 active a b
    while [ ! -e "$1" ]; do
        active=0
        curl -sf "http://$COORD/api/cluster/status" | grep -q '"active": *true' && active=1
        for q in "${QUERIES[@]}"; do
            a=$(curl -sf "http://$COORD/api/query?$q" | unwrap) || a="coordinator request failed"
            b=$(curl -sf "http://$CONTROL/api/query?$q" | unwrap) || b="control request failed"
            [ "$a" = "$b" ] || echo "round $rounds (migrating=$active): $q" >>"$OUT/divergent.txt"
        done
        curl -sf "http://$COORD/api/cluster/status" | grep -q '"active": *true' && active=1
        rounds=$((rounds + 1))
        during=$((during + active))
    done
    echo "$rounds $during" >"$OUT/compare.count"
}

log "driving the coordinator for $DURATION, growing 3 -> 4 shards mid-run, comparing answers against the control throughout"
compare_until "$OUT/bench.done" &
comparer=$!
pids+=("$comparer")
bench_ok=1
"$OUT/vdbbench" -cluster -target "http://$COORD" \
    -concurrency 8 -duration "$DURATION" \
    -reshard "{\"add\":[{\"primary\":\"http://$SHARD3\"}]}" -reshard-at 0.4 \
    >"$OUT/vdbbench.out" || bench_ok=0
touch "$OUT/bench.done"
wait "$comparer" || fail "the answer comparer died"
[ "$bench_ok" -eq 1 ] || fail "vdbbench exited non-zero (a failed reshard fails the bench)"
[ ! -e "$OUT/divergent.txt" ] \
    || fail "answers diverged from the control node during the run: $(head -5 "$OUT/divergent.txt" | tr '\n' ';')"
read -r rounds during <"$OUT/compare.count"
[ "$rounds" -gt 0 ] || fail "the answer comparer completed no round"
log "answers equal to the control node in all $rounds comparison rounds ($during of them overlapping the migration)"

cat "$OUT/vdbbench.out"

result=$(tail -n 1 "$OUT/vdbbench.out")
jq -e 'type == "object"' <<<"$result" >/dev/null || fail "vdbbench printed no result line"
metric() { # name -> value
    jq -r --arg k "$1" '.[$k] // empty' <<<"$result"
}

# The membership change must be invisible to clients: no server
# errors, no dropped connections, and no degraded answers — the
# dual-read window dedupes duplicates, it never loses a shard.
for m in http_5xx transport_errors partial_answers; do
    v=$(metric "$m")
    [ "${v:-missing}" = "0" ] || fail "$m = ${v:-missing}, want 0 across the reshard"
done

moved=$(metric reshard_moved_clips)
awk -v m="${moved:-0}" 'BEGIN { exit (m + 0 > 0) ? 0 : 1 }' \
    || fail "reshard moved ${moved:-no} clips; the grow must migrate some of the corpus"
cutover=$(metric reshard_cutover_seconds)
window=$(metric reshard_dual_read_seconds)
[ -n "${window:-}" ] || fail "result has no reshard_dual_read_seconds"
shards=$(metric cluster_shards)
[ "${shards%%.*}" = "4" ] || fail "result records ${shards:-no} shards after the grow, want 4"
lagmax=$(metric replication_lag_bytes_max)
[ -n "${lagmax:-}" ] || fail "result has no replication_lag_bytes_max (the lag sampler never saw a known lag)"
log "reshard: moved $moved clips, write barrier ${cutover}s, dual-read window ${window}s, worst lag ${lagmax}B"

# The new shard must own part of the corpus and take fan-out traffic.
curl -sf "http://$SHARD3/api/health" | grep -q '"clips": *0' \
    && fail "shard 3 owns no clips after the grow"
for _ in $(seq 1 20); do
    curl -sf "http://$COORD/api/query?varba=25&varoa=10" >/dev/null
done
status=$(curl -sf "http://$COORD/api/cluster/status")
echo "$status" | grep -q '"phase": *"done"' \
    || fail "coordinator status does not show the reshard done"
echo "$status" | grep -o '"fanoutCount": *[0-9]*' | grep -q '"fanoutCount": *0' \
    && fail "a shard took no fan-out traffic after the grow: $(echo "$status" | grep -o '"fanoutCount": *[0-9]*' | tr '\n' ' ')"
echo "$status" | grep -q '"replicaReadsEnabled": *true' \
    || fail "status does not advertise replica reads"
echo "$status" | grep -Eq '"replicaReads": *[1-9]' \
    || fail "no replica served a bounded-staleness read during the run"

# Equivalence against the never-resharded control once the dust has
# settled: the merged listing and the query set must be byte-identical.
curl -sf "http://$COORD/api/clips"   >"$OUT/listing.cluster.json"
curl -sf "http://$CONTROL/api/clips" >"$OUT/listing.control.json"
diff "$OUT/listing.cluster.json" "$OUT/listing.control.json" >/dev/null \
    || fail "final merged listing differs from the control node"
for q in "${QUERIES[@]}"; do
    [ "$(curl -sf "http://$COORD/api/query?$q" | unwrap)" = "$(curl -sf "http://$CONTROL/api/query?$q" | unwrap)" ] \
        || fail "query $q differs from the control node after the reshard"
done
log "final corpus and answers byte-identical to the control node"

log "OK — result at $OUT/vdbbench.out"
