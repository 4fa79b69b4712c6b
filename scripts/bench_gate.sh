#!/usr/bin/env bash
# bench_gate.sh — the perf-regression gate: bench/, the benchmark of
# record, on a base commit and on this tree.
#
# Checks BASE out in a git worktree (removed on exit), builds bench/ on
# both trees, and runs every workload BENCHMARK.json names for its
# run_seconds, RUNS times on each tree, alternating which tree goes
# first — the shape of `bench -selfcheck`, with BASE as set 1 and this
# tree (uncommitted edits included) as set 2. Run i uses seed i on both
# trees. Per workload and end-to-end metric it prints both medians, how
# much worse the change is in the metric's "better" direction, and the
# bound, all read from BENCHMARK.json with jq. It fails when any run
# reports correct:false or any median is worse than its bound.
#
# Tables, result lines and per-run logs land in bench-out/gate/.
# Needs git, go, jq and at least 2 CPUs: the bench sizes its clients by
# nproc, and on one CPU generator and system under test only timeshare.
#
#   scripts/bench_gate.sh main        # or make bench-gate BASE=main
#   scripts/bench_gate.sh HEAD        # the tree against itself
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:?usage: scripts/bench_gate.sh BASE}
RUNS=3
SPEC=BENCHMARK.json

log()  { echo "bench-gate: $*"; }
fail() { echo "bench-gate: FAIL: $*" >&2; exit 1; }

cpus=$(nproc)
[ "$cpus" -ge 2 ] || fail "refusing to run on $cpus CPU; the gate needs at least 2"
command -v jq >/dev/null || fail "jq not found"

rm -rf bench-out/gate
mkdir -p bench-out/gate
OUT=$(cd bench-out/gate && pwd)
results=$OUT/results.jsonl

# The base tree lives under the ignored bench-out/; its go.mod keeps it
# out of this module's ./... patterns.
git worktree prune
cleanup() { git worktree remove --force "$OUT/base" 2>/dev/null || true; }
trap cleanup EXIT
git worktree add --detach --quiet "$OUT/base" "$BASE" || fail "cannot check out $BASE"
base_sha=$(git -C "$OUT/base" rev-parse --short HEAD)
change_sha=$(git rev-parse --short HEAD)

for side in base change; do
    tree=$PWD
    [ "$side" = base ] && tree=$OUT/base
    go build -C "$tree/bench" -o "$OUT/bench.$side" . || fail "building bench/ on the $side tree"
done

seconds=$(jq -r .run_seconds "$SPEC")
mapfile -t workloads < <(jq -r '.workloads[].name' "$SPEC")

# run SIDE WORKLOAD SEED: one bench run, its result line appended to
# results.jsonl tagged with side, workload and seed.
run() {
    local stem=$OUT/$2.$1.$3
    "$OUT/bench.$1" -workload "$2" -seed "$3" -seconds "$seconds" -out "$OUT/scratch.$1" \
        >"$stem.out" 2>"$stem.err" || true
    tail -n 1 "$stem.out" | jq -ce --arg side "$1" --arg w "$2" --argjson seed "$3" \
        'select(type == "object") | {side: $side, workload: $w, seed: $seed} + .' >>"$results" \
        || fail "$2 on $1 (seed $3) printed no result line: $(tail -n 3 "$stem.err")"
    log "$2 $1 seed $3: $(tail -n 1 "$results" | jq -r '"correct=\(.correct) ops_per_s=\(.metrics.ops_per_s.value) op_p50_ms=\(.metrics.op_p50_ms.value)"')"
}

log "base $BASE ($base_sha) vs this tree ($change_sha): ${#workloads[@]} workloads x $RUNS runs x 2 trees, ${seconds}s a run"
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$RUNS"); do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$w" "$i"; run change "$w" "$i"
        else
            run change "$w" "$i"; run base "$w" "$i"
        fi
    done
done

{
    echo "# bench-gate: base $BASE ($base_sha) vs change ($change_sha); nproc=$cpus $(go env GOVERSION); median of $RUNS runs a tree, trees alternating, ${seconds}s a run"
    echo
    echo "| workload | metric | unit | base | change | worse by | bound | ok |"
    echo "|---|---|---|---|---|---|---|---|"
    jq -rn --slurpfile spec "$SPEC" --slurpfile runs "$results" '
        def median: sort | if length % 2 == 1 then .[(length - 1) / 2]
                           else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        def vals($w; $side; $name):
            [$runs[] | select(.workload == $w and .side == $side) | .metrics[$name].value];
        $spec[0] as $s
        | $s.workloads[].name as $w
        | $s.end_to_end[] as $m
        | (vals($w; "base"; $m.name) | median) as $a
        | (vals($w; "change"; $m.name) | median) as $b
        | (if $a == 0 then 0 elif $m.better == "higher" then ($a - $b) / $a else ($b - $a) / $a end) as $worse
        | [$w, $m.name, $m.unit, $a, $b, $worse, $m.bound, (if $worse > $m.bound then "NO" else "yes" end)]
        | @tsv' |
    awk -F'\t' '{ printf "| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n", $1, $2, $3, $4, $5, 100*$6, 100*$7, $8 }'
} | tee "$OUT/table.md"

wrong=$(jq -r 'select(.correct != true) | "\(.workload) \(.side) seed \(.seed): \(.failed) of \(.attempted) failed"' "$results")
breached=$(grep -c '| NO |$' "$OUT/table.md" || true)
log "wall time ${SECONDS}s"
[ -z "$wrong" ] || fail "runs not correct: $(echo "$wrong" | tr '\n' ';')"
[ "$breached" -eq 0 ] || fail "$breached median(s) worse than their bound: $(grep '| NO |$' "$OUT/table.md" |
    awk -F' *[|] *' '{ printf "%s%s %s", (NR > 1 ? ", " : ""), $2, $3 }')"
log "OK — every run correct, every median within its bound"
