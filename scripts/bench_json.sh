#!/bin/sh
# bench_json.sh — run the headline benchmarks at -cpu 1 and 4 and write
# BENCH_pr9.json with ns/op, B/op and allocs/op per width plus the measured
# parallel speedup (ns at cpu1 / ns at cpu4). On single-core hosts -cpu 4
# only adds scheduler overhead, so the ratio reads below 1 even for fully
# serial code — BenchmarkMFCSimulation (no pipeline parallelism) is the
# control that bounds the artifact; host_cpus, gomaxprocs and host_model
# record the hardware the numbers came from. ArborKernels/{tarjan,contract}
# (./internal/arbor) is the single-threaded arborescence micro-benchmark:
# the production Tarjan kernel against the contraction-loop test oracle
# that only the arbor package's tests can reach. IncrementalDetect/{full,delta} compares one-shot
# detection against the event-sourced session path answering from a warm
# per-component cache. DetectBatch vs DetectSequential is 32 detections as
# one /v1/detect/batch vs 32 individual /v1/detect round trips.
# GraphWarmup/{rebuild,snapshot} is wire-trace rebuild vs zero-copy CSR
# snapshot load; SnapshotLoad is the sgraph-level load microbench.
# SimulateModels/<name> runs one cascade per registered diffusion model on
# a shared mid-size network — the cross-model spread-cost comparison.
# DetectProfilerOverhead/{off,on} is the same labeled detect loop with the
# continuous profiler absent vs capturing on its default 2% duty cycle —
# the on/off ns/op ratio is the profiler's steady-state overhead.
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_pr10.json}
BENCHES='BenchmarkRIDEndToEnd$|BenchmarkForestExtraction$|BenchmarkMFCSimulation$|BenchmarkSimulateModels/|BenchmarkArborKernels/|BenchmarkIncrementalDetect/|BenchmarkGraphWarmup/|BenchmarkDetectBatch$|BenchmarkDetectSequential$|BenchmarkSnapshotLoad$|BenchmarkDetectProfilerOverhead/'

# Time-based benchtime so every bench gets a comparable measurement
# window: the sub-millisecond kernels run thousands of iterations (at a
# fixed low -benchtime Nx they sample a few ms of wall clock and swing
# past the bench_diff threshold run to run on a shared host), while the
# ~0.6s/op sequential baseline still runs just one.
RAW=$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime 300ms -cpu 1,4 . ./internal/arbor/ ./internal/server/ ./internal/sgraph/)
echo "$RAW"

host_model=$(awk -F: '/model name/ { gsub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
[ -n "$host_model" ] || host_model=$(uname -m)

echo "$RAW" | awk -v host_cpus="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)" \
    -v gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}" \
    -v host_model="$host_model" '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    cpu = 1
    if (match(name, /-[0-9]+$/)) {
        cpu = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    names[name] = 1
    ns_of[name, cpu] = ns
    b_of[name, cpu] = bytes
    a_of[name, cpu] = allocs
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench_json.sh\",\n"
    printf "  \"host_cpus\": %d,\n", host_cpus
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    printf "  \"host_model\": \"%s\",\n", host_model
    printf "  \"note\": \"speedup_cpu4 = ns/op(cpu=1) / ns/op(cpu=4); on a single-core host -cpu 4 only adds scheduler overhead and the ratio reads below 1 even for serial code (MFCSimulation, which has no pipeline parallelism, is the control)\",\n"
    printf "  \"benchmarks\": {\n"
    n = 0
    for (name in names) ordered[n++] = name
    # stable output order
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            if (ordered[j] < ordered[i]) { t = ordered[i]; ordered[i] = ordered[j]; ordered[j] = t }
    for (i = 0; i < n; i++) {
        name = ordered[i]
        printf "    \"%s\": {\n", name
        printf "      \"cpu1\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", \
            ns_of[name, 1], b_of[name, 1], a_of[name, 1]
        printf "      \"cpu4\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", \
            ns_of[name, 4], b_of[name, 4], a_of[name, 4]
        printf "      \"speedup_cpu4\": %.2f\n", ns_of[name, 1] / ns_of[name, 4]
        printf "    }%s\n", (i < n - 1) ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' > "$OUT"

echo "wrote $OUT"
