#!/usr/bin/env bash
# Record the FAST local-search micro-benchmarks into BENCH_search.json.
#
# Runs the evaluate-kernel benchmarks (full replay vs incremental suffix
# evaluation, plus whole greedy search steps in both modes) with
# -benchmem -count=N and emits a small JSON file with every sample and
# the derived full/incremental search-step speedup, so the perf
# trajectory of the hot path is a checked-in number, not a claim.
#
# Usage: scripts/bench.sh            # writes BENCH_search.json
#        COUNT=10 OUT=out.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
OUT="${OUT:-BENCH_search.json}"
BENCHES='BenchmarkEvaluateFull$|BenchmarkEvaluateIncremental$|BenchmarkSearchStep'

raw="$(go test -run '^$' -bench "$BENCHES" -benchmem -count="$COUNT" ./internal/fast)"
echo "$raw"

echo "$raw" | awk -v count="$COUNT" -v goversion="$(go version)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)        # strip the GOMAXPROCS suffix
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    ns[name] = ns[name] sep[name] $3
    bytes[name] = bytes[name] sep[name] $5
    allocs[name] = allocs[name] sep[name] $7
    sep[name] = ", "
    if (minns[name] == "" || $3 + 0 < minns[name] + 0) minns[name] = $3
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"count\": %d,\n", count
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": [%s], \"b_per_op\": [%s], \"allocs_per_op\": [%s]}%s\n",
            name, ns[name], bytes[name], allocs[name], i < n ? "," : ""
    }
    printf "  ],\n"
    full = minns["BenchmarkSearchStep/full"]
    inc = minns["BenchmarkSearchStep/incremental"]
    if (full != "" && inc != "" && inc + 0 > 0)
        printf "  \"search_step_speedup\": %.2f,\n", (full + 0) / (inc + 0)
    efull = minns["BenchmarkEvaluateFull"]
    einc = minns["BenchmarkEvaluateIncremental"]
    if (efull != "" && einc != "" && einc + 0 > 0)
        printf "  \"evaluate_speedup\": %.2f\n", (efull + 0) / (einc + 0)
    printf "}\n"
}' >"$OUT"

echo "wrote $OUT"

# ---------------------------------------------------------------------------
# Throughput benchmarks → BENCH_throughput.json
#
# Batch engine: the 200-request serving workload (40 graphs × 5 seeds)
# through the compiled-plan path and the legacy (pre-compilation) path
# at 1, 4 and 8 workers; the recorded speedup is legacy/compiled
# best-of-N at each worker count, and req/s is derived from the
# compiled best-of-N. PFAST: one whole scheduling run (8 cooperating
# workers) at GOMAXPROCS 1/2/4/8. On a single-core host (this repo's
# CI container has nproc=1) the PFAST curve is flat-to-rising — the
# wall-clock win needs real cores; the host's CPU count is recorded so
# readers can interpret the curve.

TOUT="${TOUT:-BENCH_throughput.json}"
TCOUNT="${TCOUNT:-5}"
TBENCHTIME="${TBENCHTIME:-2x}"

batchraw="$(go test -run '^$' -bench 'BenchmarkBatchThroughput' -benchmem -benchtime "$TBENCHTIME" -count="$TCOUNT" ./internal/batch)"
echo "$batchraw"
pfastraw="$(go test -run '^$' -bench 'BenchmarkPFASTWallClock' -benchmem -benchtime "$TBENCHTIME" -count="$TCOUNT" ./internal/fast)"
echo "$pfastraw"

printf '%s\n%s\n' "$batchraw" "$pfastraw" | awk \
    -v count="$TCOUNT" -v goversion="$(go version)" -v ncpu="$(nproc)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    ns[name] = ns[name] sep[name] $3
    allocs[name] = allocs[name] sep[name] $7
    sep[name] = ", "
    if (minns[name] == "" || $3 + 0 < minns[name] + 0) minns[name] = $3 + 0
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", ncpu
    printf "  \"count\": %d,\n", count
    printf "  \"requests_per_batch\": 200,\n"
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": [%s], \"allocs_per_op\": [%s]}%s\n",
            name, ns[name], allocs[name], i < n ? "," : ""
    }
    printf "  ],\n"
    printf "  \"batch\": {\n"
    first = 1
    for (w = 1; w <= 8; w *= 2) {
        if (w == 2) continue
        c = minns["BenchmarkBatchThroughput/compiled/workers=" w]
        l = minns["BenchmarkBatchThroughput/legacy/workers=" w]
        if (c == "" || l == "") continue
        if (!first) printf ",\n"
        first = 0
        printf "    \"workers=%d\": {\"compiled_min_ns\": %d, \"legacy_min_ns\": %d, \"speedup\": %.2f, \"compiled_req_per_s\": %.0f}",
            w, c, l, l / c, 200 / (c * 1e-9)
    }
    printf "\n  },\n"
    printf "  \"pfast_wall_ns\": {\n"
    first = 1
    for (p = 1; p <= 8; p *= 2) {
        v = minns["BenchmarkPFASTWallClock/gomaxprocs=" p]
        if (v == "") continue
        if (!first) printf ",\n"
        first = 0
        printf "    \"gomaxprocs=%d\": %d", p, v
    }
    printf "\n  }\n"
    printf "}\n"
}' >"$TOUT"

echo "wrote $TOUT"

# ---------------------------------------------------------------------------
# Scale benchmarks → BENCH_scale.json
#
# The million-node serving path: layered DAGs at v = 10⁴, 10⁵, 10⁶
# streamed through the edge-list reader into CSR arenas and scheduled
# with hierarchical FAST. Each size reports three measurement modes
# (see BenchmarkScale): the nil-arena single shot's peak-B/node and
# busy-time balance, the fresh-arena cold-allocs/node, and the timed
# warm serving loop's ns/op + warm-allocs/node. The benchmark does its
# own warm-up pass and forced GC before the timed region, so the timed
# loop measures the allocation-flat warm path and run-to-run variance
# collapses to host drift; the derived summaries below use best-of-N.

SOUT="${SOUT:-BENCH_scale.json}"
SCOUNT="${SCOUNT:-3}"

scaleraw="$(go test -run '^$' -bench 'BenchmarkScale/' -benchmem -benchtime 1x -timeout 900s -count="$SCOUNT" ./internal/fast)"
echo "$scaleraw"

# Benchmark lines carry (value, unit) pairs after the iteration count,
# with custom metrics sorted alphabetically between ns/op and B/op —
# positions are not fixed, so scan the pairs by unit name:
#   BenchmarkScale/v=10000-1  1  18665879 ns/op  1.000 balance  0.046 cold-allocs/node  160.5 peak-B/node  0.036 warm-allocs/node  1093664 B/op  359 allocs/op
echo "$scaleraw" | awk -v count="$SCOUNT" -v goversion="$(go version)" -v ncpu="$(nproc)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkScale\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
    for (i = 3; i < NF; i += 2) {
        v = $i + 0
        u = $(i + 1)
        arr[name, u] = arr[name, u] sep[name, u] $i
        sep[name, u] = ", "
        if (minv[name, u] == "" || v < minv[name, u] + 0) minv[name, u] = v
    }
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", ncpu
    printf "  \"count\": %d,\n", count
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": [%s], \"peak_b_per_node\": [%s], \"allocs_per_op\": [%s], \"cold_allocs_per_node\": [%s], \"warm_allocs_per_node\": [%s], \"balance\": [%s]}%s\n",
            name, arr[name, "ns/op"], arr[name, "peak-B/node"], arr[name, "allocs/op"],
            arr[name, "cold-allocs/node"], arr[name, "warm-allocs/node"],
            arr[name, "balance"], i < n ? "," : ""
    }
    printf "  ],\n"
    printf "  \"peak_b_per_node\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        v = name
        sub(/.*\/v=/, "", v)
        printf "    \"v=%s\": %.1f%s\n", v, minv[name, "peak-B/node"], i < n ? "," : ""
    }
    printf "  },\n"
    printf "  \"seconds_per_op\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        v = name
        sub(/.*\/v=/, "", v)
        printf "    \"v=%s\": %.3f%s\n", v, minv[name, "ns/op"] / 1e9, i < n ? "," : ""
    }
    printf "  },\n"
    printf "  \"allocs_per_node\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        v = name
        sub(/.*\/v=/, "", v)
        printf "    \"v=%s\": {\"cold\": %.4f, \"warm\": %.4f}%s\n",
            v, minv[name, "cold-allocs/node"], minv[name, "warm-allocs/node"], i < n ? "," : ""
    }
    printf "  },\n"
    printf "  \"balance\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        v = name
        sub(/.*\/v=/, "", v)
        printf "    \"v=%s\": %.3f%s\n", v, minv[name, "balance"], i < n ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' >"$SOUT"

echo "wrote $SOUT"
