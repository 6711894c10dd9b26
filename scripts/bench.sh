#!/usr/bin/env sh
# Record the headline benchmark numbers as a dated JSON baseline so the
# perf trajectory is tracked PR over PR.
#
#   scripts/bench.sh [label]
#
# emits BENCH_<date>[_label].json in the repository root with one entry
# per benchmark: ns/op, B/op, allocs/op, the GOMAXPROCS the benchmark ran
# under ("cpus"), and every custom metric the bench reports (pkts/s,
# execs/s, switches/5s, ...). BENCHTIME overrides the per-benchmark
# measurement time (default 1s; use e.g. 100x for a smoke run). CPUS, when
# set, is passed to `go test -cpu` as a GOMAXPROCS sweep list (e.g.
# CPUS=1,2,4), running every benchmark once per value; the core-scaling
# baseline is recorded with
#
#   CPUS=1,2,4 scripts/bench.sh multicore
#
# which emits BENCH_<date>_multicore.json including the
# BenchmarkHeadlineParallelism sweep of relay/receiver parallelism 1, 2
# and 4 on the unsharded engine. QOS=1 adds the adaptive-QoS
# latency-target sweep (BenchmarkLatencyTargetSweep: the untargeted
# headline vs closed-loop 50 ms and 10 ms targets; each run records
# p50-lat-µs/p99-lat-µs plus the controller's escalation and chaining
# activity); the targeted runs are 5 s each, so budget extra wall time:
#
#   QOS=1 scripts/bench.sh qos
set -eu
cd "$(dirname "$0")/.."

label="${1:-}"
benchtime="${BENCHTIME:-1s}"
cpus="${CPUS:-}"
qos="${QOS:-}"
date_tag=$(date +%Y-%m-%d)
out="BENCH_${date_tag}${label:+_$label}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# run_bench <pattern> <package>: one benchmark batch, with the optional
# -cpu sweep applied uniformly.
run_bench() {
    if [ -n "$cpus" ]; then
        go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" \
            -cpu "$cpus" "$2" >>"$raw"
    else
        go test -run '^$' -bench "$1" -benchmem -benchtime "$benchtime" \
            "$2" >>"$raw"
    fi
}

# Headline benches: the scheduler contention sweep, the concurrent
# dispatch path (swept over destination instances), the single-node relay
# headline with its parallelism sweep, and Table I's context-switch
# accounting.
run_bench 'BenchmarkSchedulerContention|BenchmarkSubmitLatency' ./internal/granules
run_bench 'BenchmarkDispatch' ./internal/core
run_bench 'BenchmarkHeadlineSingleNode|BenchmarkHeadlineParallelism|BenchmarkTable1ContextSwitches' .

# Optional adaptive-QoS latency-target sweep (see header).
if [ -n "$qos" ]; then
    run_bench 'BenchmarkLatencyTargetSweep' .
fi

{
    printf '{\n'
    printf '  "date": "%s",\n' "$date_tag"
    printf '  "label": "%s",\n' "$label"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    printf '  "cpu_list": "%s",\n' "$cpus"
    printf '  "benchtime": "%s",\n' "$benchtime"
    printf '  "benchmarks": [\n'
    awk '
        /^Benchmark/ {
            if (n++) printf ",\n"
            # go test suffixes the name with -<GOMAXPROCS> when it differs
            # from 1 or a -cpu list is given; no suffix means 1.
            bcpus = 1
            if (match($1, /-[0-9]+$/))
                bcpus = substr($1, RSTART + 1, RLENGTH - 1)
            printf "    {\"name\": \"%s\", \"iters\": %s, \"cpus\": %s", $1, $2, bcpus
            for (i = 3; i < NF; i += 2)
                printf ", \"%s\": %s", $(i + 1), $i
            printf "}"
        }
        END { if (n) printf "\n" }
    ' "$raw"
    printf '  ]\n'
    printf '}\n'
} >"$out"

echo "wrote $out"
