#!/bin/sh
# bench.sh — measure the parallel harness and the event-loop hot path.
#
# Runs every experiment of the quick suite twice — at -parallel 1 (the
# sequential harness) and at -parallel <all cores> — and records the
# wall-clock of each, plus sync-vs-async dispatch-tier cells (the same
# experiments re-run under -tlbmode sync and -tlbmode async) and the
# sim package's event-loop microbenchmarks (ns/event and allocs/event).
# Emits BENCH_parallel.json in the repo root; CI uploads it as an
# artifact.
#
# The outputs of the two runs are byte-compared along the way: a speedup
# that changes results would be a bug, not a feature.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
OUT=${OUT:-BENCH_parallel.json}
WORKERS=$(${GO} env GOMAXPROCS 2>/dev/null || true)
[ -n "$WORKERS" ] || WORKERS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

TLBSIM=$(mktemp -t tlbsim.XXXXXX)
SERIAL_OUT=$(mktemp -t tlbsim-serial.XXXXXX)
PARALLEL_OUT=$(mktemp -t tlbsim-parallel.XXXXXX)
BENCH_OUT=$(mktemp -t simbench.XXXXXX)
trap 'rm -f "$TLBSIM" "$SERIAL_OUT" "$PARALLEL_OUT" "$BENCH_OUT"' EXIT

echo "==> building tlbsim" >&2
${GO} build -o "$TLBSIM" ./cmd/tlbsim

now_ns() { date +%s%N; }

names=$("$TLBSIM" -list | sed -n 's/^  //p')

exp_json=""
# bench_one <row-name> <tlbsim args...>: time the run at -parallel 1
# and -parallel $WORKERS, byte-compare the outputs, append a JSON row.
bench_one() {
    rowname=$1; shift
    echo "==> $rowname" >&2
    t0=$(now_ns)
    "$TLBSIM" "$@" -quick -parallel 1 >"$SERIAL_OUT" 2>/dev/null
    t1=$(now_ns)
    "$TLBSIM" "$@" -quick -parallel "$WORKERS" >"$PARALLEL_OUT" 2>/dev/null
    t2=$(now_ns)
    if ! cmp -s "$SERIAL_OUT" "$PARALLEL_OUT"; then
        echo "bench.sh: $rowname output differs between -parallel 1 and -parallel $WORKERS" >&2
        exit 1
    fi
    serial_ns=$((t1 - t0))
    parallel_ns=$((t2 - t1))
    # Speedup via awk; the integers via shell printf — awk's %d can be
    # 32-bit and would mangle nanosecond counts past ~2.1s.
    speedup=$(awk -v s="$serial_ns" -v p="$parallel_ns" 'BEGIN {
        printf "%.3f", (p > 0) ? s / p : 0
    }')
    row=$(printf '{"name":"%s","serial_ns":%d,"parallel_ns":%d,"speedup":%s}' \
        "$rowname" "$serial_ns" "$parallel_ns" "$speedup")
    exp_json="$exp_json$row,"
}

for name in $names; do
    bench_one "$name" -exp "$name"
done

# Sync-vs-async dispatch-tier cells: the same experiment forced onto
# each tier via -tlbmode, so the artifact tracks what the asynchronous
# fabric costs/saves in wall-clock next to the simulated-cycle tables
# the `async` experiment row itself regenerates.
for mode in sync async; do
    bench_one "fig6@$mode" -exp fig6 -tlbmode "$mode"
    bench_one "fig10@$mode" -exp fig10 -tlbmode "$mode"
done
exp_json=${exp_json%,}

echo "==> event-loop microbenchmarks" >&2
${GO} test -run '^$' -bench 'BenchmarkEventLoop|BenchmarkProcDelay|BenchmarkProcPingPong|BenchmarkEngineChurn' -benchmem ./internal/sim/ >"$BENCH_OUT"

# "BenchmarkEventLoop  85503980  12.64 ns/op  0 B/op  0 allocs/op"
loop_line=$(grep '^BenchmarkEventLoop' "$BENCH_OUT" | head -1)
delay_line=$(grep '^BenchmarkProcDelay' "$BENCH_OUT" | head -1)
pingpong_line=$(grep '^BenchmarkProcPingPong' "$BENCH_OUT" | head -1)
loop_ns=$(echo "$loop_line" | awk '{print $3}')
loop_allocs=$(echo "$loop_line" | awk '{print $7}')
delay_ns=$(echo "$delay_line" | awk '{print $3}')
delay_allocs=$(echo "$delay_line" | awk '{print $7}')
pingpong_ns=$(echo "$pingpong_line" | awk '{print $3}')
pingpong_allocs=$(echo "$pingpong_line" | awk '{print $7}')

# Scale grid: "BenchmarkEngineChurn/cpus=512-8  N  42.1 ns/op  0 B/op  0 allocs/op"
# -> one row per cpus cell, tagged with the engine's one event queue (the
# timer wheel) so the rows keep their shape; ns/event must stay flat with width
# and allocs/event must stay 0 (the tier-2 test TestEngineChurnScalesFlat
# enforces both; this just records the numbers).
churn_json=$(grep '^BenchmarkEngineChurn/' "$BENCH_OUT" | awk '{
    split($1, parts, "/")
    cpus = parts[2]; sub(/^cpus=/, "", cpus); sub(/-[0-9]+$/, "", cpus)
    printf "%s{\"engine\":\"wheel\",\"cpus\":%s,\"ns_per_event\":%s,\"allocs_per_event\":%s}", sep, cpus, $3, $7
    sep = ","
}')

{
    printf '{\n'
    printf '  "workers": %s,\n' "$WORKERS"
    printf '  "note": "speedup needs spare cores: on a 1-CPU host parallel==serial by design; outputs are byte-identical at every worker count",\n'
    printf '  "experiments": [%s],\n' "$exp_json"
    printf '  "event_loop": {"ns_per_event": %s, "allocs_per_event": %s, "ns_per_delay": %s, "allocs_per_delay": %s, "ns_per_pingpong": %s, "allocs_per_pingpong": %s},\n' \
        "$loop_ns" "$loop_allocs" "$delay_ns" "$delay_allocs" "$pingpong_ns" "$pingpong_allocs"
    printf '  "engine_churn": [%s]\n' "$churn_json"
    printf '}\n'
} >"$OUT"

echo "==> wrote $OUT" >&2
cat "$OUT"
