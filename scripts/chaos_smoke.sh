#!/usr/bin/env bash
# chaos_smoke.sh — overload-protection exercise on loopback.
#
# Builds the binaries, starts a 3-shard cluster in which shard 0 is
# chaos-degraded (60% of its /api/query answers delayed 300ms) but owns
# a healthy read replica, and every shard sheds per-client traffic
# above 150 req/s. A vdbcoord with hedging and a 0.2 retry budget
# fronts it, and vdbbench -chaos drives it: paced, per-key healthy
# workers alongside an unpaced abusive pool sharing one client key.
#
# The run must show the whole robustness tier working at once:
#   - healthy traffic sees zero 5xx and zero transport errors, and its
#     shed rate stays (near) zero — admission never punishes the polite;
#   - the abuser is shed (429 + Retry-After), not failed: abuse_shed
#     is nonzero while abuse_5xx stays 0;
#   - hedged probes win slow answers back (coord_hedge_wins > 0);
#   - retry+hedge volume stays within the budget:
#     retries + hedges <= 0.2 * fetches + 16 (the budget burst);
#   - the shards' videodb_admission_shed_total and shard 0's
#     videodb_chaos_injected_latency_total counters are nonzero.
#
#   ./scripts/chaos_smoke.sh                    # the CI chaos gate
#   CHAOS_SMOKE_DURATION=20s ./scripts/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${CHAOS_SMOKE_DIR:-bench-out/chaos-smoke}
DURATION=${CHAOS_SMOKE_DURATION:-10s}
COORD=127.0.0.1:19290
SHARD0=127.0.0.1:19201
SHARD1=127.0.0.1:19202
SHARD2=127.0.0.1:19203
REPLICA0=127.0.0.1:19211
ADMISSION="-client-rate-limit 150 -client-rate-burst 150"

log()  { echo "chaos-smoke: $*"; }
fail() { echo "chaos-smoke: FAIL: $*" >&2; exit 1; }

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

log "starting 3 shards (shard 0 chaos-degraded + replicated) + coordinator"
# shellcheck disable=SC2086  # ADMISSION is a flag list on purpose
"$OUT/vdbserver" -data "$OUT/shard0" \
    -addr "$SHARD0" $ADMISSION \
    -chaos "latency:/api/query:0.6:300ms" -chaos-seed 1 \
    >"$OUT/shard0.log" 2>&1 &
pids+=($!)
for i in 1 2; do
    addr_var="SHARD$i"
    # shellcheck disable=SC2086
    "$OUT/vdbserver" -data "$OUT/shard$i" \
        -addr "${!addr_var}" $ADMISSION >"$OUT/shard$i.log" 2>&1 &
    pids+=($!)
done
# shellcheck disable=SC2086
"$OUT/vdbserver" -replica-of "http://$SHARD0" -replica-poll 100ms \
    -addr "$REPLICA0" $ADMISSION >"$OUT/replica0.log" 2>&1 &
pids+=($!)
for a in "$SHARD0" "$SHARD1" "$SHARD2" "$REPLICA0"; do wait_ready "$a"; done

"$OUT/vdbcoord" -addr "$COORD" -probe 250ms -timeout 2s \
    -hedge -hedge-delay 50ms -retry-budget 0.2 \
    -shard "http://$SHARD0,http://$REPLICA0" \
    -shard "http://$SHARD1" \
    -shard "http://$SHARD2" >"$OUT/coord.log" 2>&1 &
pids+=($!)
wait_ready "$COORD"

log "ingesting the corpus through the coordinator"
for f in "$OUT"/corpus/*.vdbf; do
    name=$(basename "$f" .vdbf)
    curl -sf -X POST --data-binary @"$f" \
        "http://$COORD/api/clips?name=$name" >/dev/null \
        || fail "ingest of $name through the coordinator"
done

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

log "driving the chaos scenario for $DURATION (6 healthy + abusive pool)"
"$OUT/vdbbench" -chaos -target "http://$COORD" \
    -concurrency 6 -duration "$DURATION" >"$OUT/vdbbench.out" \
    || fail "vdbbench exited non-zero"
cat "$OUT/vdbbench.out"

result=$(tail -n 1 "$OUT/vdbbench.out")
jq -e 'type == "object"' <<<"$result" >/dev/null || fail "vdbbench printed no result line"
metric() { # name -> value
    jq -r --arg k "$1" '.[$k] // empty' <<<"$result"
}

# Healthy traffic: shed nothing (bounded at 1%), fail nothing.
for m in http_5xx transport_errors abuse_5xx; do
    v=$(metric "$m")
    [ "${v:-missing}" = "0" ] || fail "$m = ${v:-missing}, want 0 (shed, never failed)"
done
shed_rate=$(metric shed_rate)
awk -v r="${shed_rate:-1}" 'BEGIN { exit (r + 0 <= 0.01) ? 0 : 1 }' \
    || fail "healthy shed_rate = ${shed_rate:-missing}, want <= 0.01"

# The abuser was shed, visibly and substantially.
abuse_shed=$(metric abuse_shed)
awk -v v="${abuse_shed:-0}" 'BEGIN { exit (v + 0 > 0) ? 0 : 1 }' \
    || fail "abuse_shed = ${abuse_shed:-missing}, want > 0 (the abuser was never shed)"

# Hedging won slow shard-0 answers back.
hedge_wins=$(metric coord_hedge_wins)
awk -v v="${hedge_wins:-0}" 'BEGIN { exit (v + 0 > 0) ? 0 : 1 }' \
    || fail "coord_hedge_wins = ${hedge_wins:-missing}, want > 0"

# The retry budget held: extra attempts (retries + hedges) never
# exceeded ratio * primary fetches + the initial burst.
fetches=$(metric coord_fetches)
retries=$(metric coord_retries)
hedges=$(metric coord_hedges)
awk -v f="${fetches:-0}" -v r="${retries:-0}" -v h="${hedges:-0}" \
    'BEGIN { exit (r + h <= 0.2 * f + 16) ? 0 : 1 }' \
    || fail "retry budget violated: retries=$retries hedges=$hedges fetches=$fetches (cap 0.2*fetches+16)"

# Shard-side counters: admission shed the abuser, chaos really injected.
total_shed=0
for a in "$SHARD0" "$SHARD1" "$SHARD2"; do
    s=$(curl -sf "http://$a/api/metrics" \
        | awk '$1 == "videodb_admission_shed_total" { print int($2) }')
    total_shed=$((total_shed + ${s:-0}))
done
[ "$total_shed" -gt 0 ] || fail "videodb_admission_shed_total = 0 across all shards"
injected=$(curl -sf "http://$SHARD0/api/metrics" \
    | awk '$1 == "videodb_chaos_injected_latency_total" { print int($2) }')
[ "${injected:-0}" -gt 0 ] || fail "shard 0 injected no chaos latency (videodb_chaos_injected_latency_total = ${injected:-missing})"

log "OK — healthy shed_rate=$shed_rate, abuse_shed=$abuse_shed, hedge_wins=$hedge_wins, retries=$retries hedges=$hedges over $fetches fetches, shards shed $total_shed, chaos injected $injected"
log "result at $OUT/vdbbench.out"
