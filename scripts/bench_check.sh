#!/usr/bin/env bash
# Gate the FAST local-search hot path against the checked-in baseline.
#
# Re-runs the micro-benchmarks recorded in BENCH_search.json and fails
# when any benchmark's best-of-N ns/op regresses more than THRESHOLD
# percent against the baseline's best sample. Best-of-N (not mean)
# keeps the gate robust against scheduler noise on loaded CI machines;
# a genuine slowdown shifts the whole distribution, including the min.
#
# The default threshold is sized to the reference container, a shared
# single-core VM whose effective CPU speed was measured drifting ±20%
# minute-to-minute with no code change (identical binary, idle load
# average). An absolute ns/op gate cannot be tighter than the host's
# own drift without false alarms, so the default is 30%; tighten via
# THRESHOLD on quiet dedicated hardware. The ratio gates below
# (speedup, PFAST slack) divide two same-epoch measurements and are
# immune to the drift, which is why they stay tight.
#
# The search, throughput and scale sections run in turn whatever the
# earlier ones found; the script exits non-zero at the end if any gate
# failed, naming the failed sections.
#
# Usage: scripts/bench_check.sh                 # 30% gate, count=3
#        THRESHOLD=15 COUNT=5 scripts/bench_check.sh
#        BASELINE=other.json scripts/bench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

failed=""

THRESHOLD="${THRESHOLD:-30}"
COUNT="${COUNT:-3}"
BASELINE="${BASELINE:-BENCH_search.json}"
BENCHES='BenchmarkEvaluateFull$|BenchmarkEvaluateIncremental$|BenchmarkSearchStep'

if [ ! -f "$BASELINE" ]; then
    echo "bench_check.sh: baseline $BASELINE not found" >&2
    exit 1
fi

echo "== bench check: ${BENCHES} vs ${BASELINE} (threshold ${THRESHOLD}%, count ${COUNT})"
raw="$(go test -run '^$' -bench "$BENCHES" -count="$COUNT" ./internal/fast)"
echo "$raw"

# Baseline minimum ns/op per benchmark, from the JSON's ns_per_op arrays.
base="$(awk '
/"name":/ {
    line = $0
    sub(/.*"name": *"/, "", line); name = line; sub(/".*/, "", name)
    sub(/.*"ns_per_op": *\[/, "", line); sub(/\].*/, "", line)
    gsub(/ /, "", line)
    n = split(line, vals, ",")
    min = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < min) min = vals[i] + 0
    printf "%s %d\n", name, min
}' "$BASELINE")"

if [ -z "$base" ]; then
    echo "bench_check.sh: no benchmarks parsed from $BASELINE" >&2
    exit 1
fi

if ! echo "$raw" | awk -v threshold="$THRESHOLD" -v baseline="$base" '
BEGIN {
    n = split(baseline, lines, "\n")
    for (i = 1; i <= n; i++) {
        split(lines[i], kv, " ")
        basemin[kv[1]] = kv[2] + 0
    }
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (curmin[name] == "" || $3 + 0 < curmin[name] + 0) curmin[name] = $3 + 0
    if (!(name in seen)) { seen[name] = 1; order[++cnt] = name }
}
END {
    fail = 0
    checked = 0
    for (i = 1; i <= cnt; i++) {
        name = order[i]
        if (!(name in basemin)) continue
        checked++
        delta = 100 * (curmin[name] - basemin[name]) / basemin[name]
        verdict = "ok"
        if (delta > threshold) { verdict = "REGRESSED"; fail = 1 }
        printf "%-40s base %9d ns/op  now %9d ns/op  %+7.1f%%  %s\n",
            name, basemin[name], curmin[name], delta, verdict
    }
    if (checked == 0) {
        print "bench_check.sh: no benchmark overlapped the baseline" > "/dev/stderr"
        exit 1
    }
    if (fail) {
        printf "bench_check.sh: regression beyond %s%% — investigate or re-baseline with scripts/bench.sh\n", threshold > "/dev/stderr"
        exit 1
    }
    print "bench_check.sh: within threshold"
}'; then
    failed="$failed search"
fi

# ---------------------------------------------------------------------------
# Throughput gate: compiled-plan serving path vs BENCH_throughput.json.
#
# Re-runs the workers=1 batch benchmarks (the least scheduler-noisy
# configuration) and the PFAST wall-clock endpoints, then checks:
#   1. compiled-path ns/op has not regressed more than TTHRESHOLD%
#      against the baseline's best sample (same host-drift sizing as
#      THRESHOLD above — the absolute-ns gates share the 30% default);
#   2. compiled-path allocs/op has not regressed more than
#      ALLOC_THRESHOLD% — the steady-state allocation budget of the
#      compiled path is part of its contract, pinned here with
#      -benchmem on top of the AllocsPerRun unit tests;
#   3. the freshly measured legacy/compiled speedup stays above
#      TSPEEDUP: the recorded baseline is ~1.6x, so 1.35 leaves room
#      for CI noise while still catching a real loss of the win;
#   4. PFAST wall-clock at GOMAXPROCS=8 is no worse than PFAST_SLACK x
#      its GOMAXPROCS=1 time. On this repo's single-core CI container
#      (host_cpus=1 in the baseline) the curve is flat by construction
#      — real speedup needs real cores — so the gate only rejects a
#      parallel path that got *slower* than serial, which holds on any
#      host.

TTHRESHOLD="${TTHRESHOLD:-30}"
ALLOC_THRESHOLD="${ALLOC_THRESHOLD:-10}"
TSPEEDUP="${TSPEEDUP:-1.35}"
PFAST_SLACK="${PFAST_SLACK:-1.5}"
TBASELINE="${TBASELINE:-BENCH_throughput.json}"

if [ ! -f "$TBASELINE" ]; then
    echo "bench_check.sh: baseline $TBASELINE not found" >&2
    exit 1
fi

echo "== throughput check vs ${TBASELINE} (ns ${TTHRESHOLD}%, allocs ${ALLOC_THRESHOLD}%, speedup >= ${TSPEEDUP})"
traw="$(go test -run '^$' -bench 'BenchmarkBatchThroughput/(compiled|legacy)/workers=1$' -benchmem -benchtime 2x -count="$COUNT" ./internal/batch)"
echo "$traw"
praw="$(go test -run '^$' -bench 'BenchmarkPFASTWallClock/gomaxprocs=(1|8)$' -benchmem -benchtime 2x -count="$COUNT" ./internal/fast)"
echo "$praw"

# Baseline best ns/op and allocs/op per benchmark from the JSON arrays.
tbase="$(awk '
/"name":/ {
    line = $0
    sub(/.*"name": *"/, "", line); name = line; sub(/".*/, "", name)
    rest = $0
    sub(/.*"ns_per_op": *\[/, "", rest); nsl = rest; sub(/\].*/, "", nsl)
    gsub(/ /, "", nsl)
    n = split(nsl, vals, ",")
    minns = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < minns) minns = vals[i] + 0
    sub(/.*"allocs_per_op": *\[/, "", rest); al = rest; sub(/\].*/, "", al)
    gsub(/ /, "", al)
    n = split(al, vals, ",")
    minal = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < minal) minal = vals[i] + 0
    printf "%s %d %d\n", name, minns, minal
}' "$TBASELINE")"

if ! printf '%s\n%s\n' "$traw" "$praw" | awk \
    -v tthreshold="$TTHRESHOLD" -v athreshold="$ALLOC_THRESHOLD" \
    -v tspeedup="$TSPEEDUP" -v pslack="$PFAST_SLACK" -v baseline="$tbase" '
BEGIN {
    n = split(baseline, lines, "\n")
    for (i = 1; i <= n; i++) {
        split(lines[i], kv, " ")
        basens[kv[1]] = kv[2] + 0
        baseal[kv[1]] = kv[3] + 0
    }
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (curns[name] == "" || $3 + 0 < curns[name] + 0) curns[name] = $3 + 0
    if (cural[name] == "" || $7 + 0 < cural[name] + 0) cural[name] = $7 + 0
}
END {
    fail = 0
    comp = "BenchmarkBatchThroughput/compiled/workers=1"
    leg = "BenchmarkBatchThroughput/legacy/workers=1"
    p1 = "BenchmarkPFASTWallClock/gomaxprocs=1"
    p8 = "BenchmarkPFASTWallClock/gomaxprocs=8"
    if (!(comp in curns) || !(leg in curns) || !(p1 in curns) || !(p8 in curns)) {
        print "bench_check.sh: throughput benchmarks missing from run" > "/dev/stderr"
        exit 1
    }
    # 1. compiled ns/op regression.
    if (comp in basens) {
        delta = 100 * (curns[comp] - basens[comp]) / basens[comp]
        verdict = "ok"; if (delta > tthreshold) { verdict = "REGRESSED"; fail = 1 }
        printf "%-44s base %9d ns/op  now %9d ns/op  %+7.1f%%  %s\n",
            comp, basens[comp], curns[comp], delta, verdict
    }
    # 2. compiled allocs/op regression.
    if (comp in baseal && baseal[comp] > 0) {
        adelta = 100 * (cural[comp] - baseal[comp]) / baseal[comp]
        verdict = "ok"; if (adelta > athreshold) { verdict = "REGRESSED"; fail = 1 }
        printf "%-44s base %9d allocs    now %9d allocs    %+7.1f%%  %s\n",
            comp, baseal[comp], cural[comp], adelta, verdict
    }
    # 3. fresh legacy/compiled speedup.
    sp = curns[leg] / curns[comp]
    verdict = "ok"; if (sp < tspeedup + 0) { verdict = "BELOW GATE"; fail = 1 }
    printf "%-44s speedup %.2fx (gate >= %.2f)  %s\n", "compiled vs legacy (workers=1)", sp, tspeedup, verdict
    # 4. PFAST parallel-vs-serial slack.
    ratio = curns[p8] / curns[p1]
    verdict = "ok"; if (ratio > pslack + 0) { verdict = "BELOW GATE"; fail = 1 }
    printf "%-44s gp8/gp1 %.2fx (gate <= %.2f)  %s\n", "PFAST wall-clock", ratio, pslack, verdict
    if (fail) {
        print "bench_check.sh: throughput gate failed — investigate or re-baseline with scripts/bench.sh" > "/dev/stderr"
        exit 1
    }
    print "bench_check.sh: throughput within gates"
}'; then
    failed="$failed throughput"
fi

# ---------------------------------------------------------------------------
# Scale gate: the million-node path vs BENCH_scale.json.
#
# Re-runs the v=10⁵ scale benchmark only (the 10⁶ case costs seconds
# per sample and scales the same arenas; 10⁵ catches any per-node
# regression at a fraction of the gate's wall time) and checks:
#   1. peak-B/node has not grown more than SCALE_THRESHOLD% against
#      the baseline AND stays at or under SCALE_PEAK_MAX absolute —
#      heap footprint is deterministic per (workload, code) pair,
#      immune to host drift, so both stay tight;
#   2. warm-loop allocs/op has not grown more than SCALE_THRESHOLD% —
#      also deterministic, same 15%;
#   3. ns/op (best-of-N, warm serving loop) has not regressed more than
#      SCALE_NS_THRESHOLD% — an absolute-time gate shares the 30%
#      host-drift sizing documented at the top of this file;
#   4. cold-allocs/node <= SCALE_COLD_MAX and warm-allocs/node <
#      SCALE_WARM_MAX — the arena's allocation-flat contract in
#      absolute terms;
#   5. balance <= SCALE_BALANCE_MAX — the schedule's max/mean PE
#      busy-time stays within 1.5.

SCALE_THRESHOLD="${SCALE_THRESHOLD:-15}"
SCALE_NS_THRESHOLD="${SCALE_NS_THRESHOLD:-30}"
SCALE_PEAK_MAX="${SCALE_PEAK_MAX:-157}"
SCALE_COLD_MAX="${SCALE_COLD_MAX:-4}"
SCALE_WARM_MAX="${SCALE_WARM_MAX:-0.5}"
SCALE_BALANCE_MAX="${SCALE_BALANCE_MAX:-1.5}"
SBASELINE="${SBASELINE:-BENCH_scale.json}"
SBENCH='BenchmarkScale/v=100000$'

if [ ! -f "$SBASELINE" ]; then
    echo "bench_check.sh: baseline $SBASELINE not found" >&2
    exit 1
fi

echo "== scale check vs ${SBASELINE} (mem/allocs ${SCALE_THRESHOLD}%, ns ${SCALE_NS_THRESHOLD}%, peak <= ${SCALE_PEAK_MAX} B/node, cold <= ${SCALE_COLD_MAX}, warm < ${SCALE_WARM_MAX}, balance <= ${SCALE_BALANCE_MAX})"
sraw="$(go test -run '^$' -bench "$SBENCH" -benchmem -benchtime 1x -timeout 300s -count="$COUNT" ./internal/fast)"
echo "$sraw"

sbase="$(awk '
/"name":/ {
    line = $0
    sub(/.*"name": *"/, "", line); name = line; sub(/".*/, "", name)
    rest = $0
    sub(/.*"ns_per_op": *\[/, "", rest); nsl = rest; sub(/\].*/, "", nsl)
    gsub(/ /, "", nsl)
    n = split(nsl, vals, ",")
    minns = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < minns) minns = vals[i] + 0
    rest = $0
    sub(/.*"peak_b_per_node": *\[/, "", rest); pl = rest; sub(/\].*/, "", pl)
    gsub(/ /, "", pl)
    n = split(pl, vals, ",")
    minpk = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < minpk) minpk = vals[i] + 0
    rest = $0
    sub(/.*"allocs_per_op": *\[/, "", rest); al = rest; sub(/\].*/, "", al)
    gsub(/ /, "", al)
    n = split(al, vals, ",")
    minal = vals[1] + 0
    for (i = 2; i <= n; i++) if (vals[i] + 0 < minal) minal = vals[i] + 0
    printf "%s %d %.1f %d\n", name, minns, minpk, minal
}' "$SBASELINE")"

# Current run: benchmark lines carry (value, unit) pairs with custom
# metrics sorted alphabetically — scan by unit name, keep best-of-N.
if ! echo "$sraw" | awk -v sthreshold="$SCALE_THRESHOLD" -v nsthreshold="$SCALE_NS_THRESHOLD" \
    -v peakmax="$SCALE_PEAK_MAX" -v coldmax="$SCALE_COLD_MAX" -v warmmax="$SCALE_WARM_MAX" \
    -v balmax="$SCALE_BALANCE_MAX" -v baseline="$sbase" '
BEGIN {
    n = split(baseline, lines, "\n")
    for (i = 1; i <= n; i++) {
        split(lines[i], kv, " ")
        basens[kv[1]] = kv[2] + 0
        basepk[kv[1]] = kv[3] + 0
        baseal[kv[1]] = kv[4] + 0
    }
}
/^BenchmarkScale\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i += 2) {
        v = $i + 0
        u = $(i + 1)
        if (minv[name, u] == "" || v < minv[name, u] + 0) minv[name, u] = v
    }
    target = name
}
END {
    if (target == "" || !(target in basens)) {
        print "bench_check.sh: scale benchmark missing from run or baseline" > "/dev/stderr"
        exit 1
    }
    fail = 0
    curpk = minv[target, "peak-B/node"] + 0
    cural = minv[target, "allocs/op"] + 0
    curns = minv[target, "ns/op"] + 0
    curcold = minv[target, "cold-allocs/node"] + 0
    curwarm = minv[target, "warm-allocs/node"] + 0
    curbal = minv[target, "balance"] + 0
    # 1. peak: relative and absolute.
    pdelta = 100 * (curpk - basepk[target]) / basepk[target]
    verdict = "ok"; if (pdelta > sthreshold) { verdict = "REGRESSED"; fail = 1 }
    printf "%-36s base %9.1f B/node  now %9.1f B/node  %+7.1f%%  %s\n",
        target " peak", basepk[target], curpk, pdelta, verdict
    verdict = "ok"; if (curpk > peakmax + 0) { verdict = "ABOVE CAP"; fail = 1 }
    printf "%-36s %9.1f B/node (cap %.0f)  %s\n", target " peak cap", curpk, peakmax, verdict
    # 2. warm-loop allocs/op.
    adelta = 100 * (cural - baseal[target]) / baseal[target]
    verdict = "ok"; if (adelta > sthreshold) { verdict = "REGRESSED"; fail = 1 }
    printf "%-36s base %9d allocs  now %9d allocs  %+7.1f%%  %s\n",
        target " allocs", baseal[target], cural, adelta, verdict
    # 3. warm-loop time.
    ndelta = 100 * (curns - basens[target]) / basens[target]
    verdict = "ok"; if (ndelta > nsthreshold) { verdict = "REGRESSED"; fail = 1 }
    printf "%-36s base %9d ns/op  now %9d ns/op  %+7.1f%%  %s\n",
        target " time", basens[target], curns, ndelta, verdict
    # 4. absolute allocation-flat contract.
    verdict = "ok"; if (curcold > coldmax + 0) { verdict = "ABOVE CAP"; fail = 1 }
    printf "%-36s %9.4f allocs/node (cap %.1f)  %s\n", target " cold", curcold, coldmax, verdict
    verdict = "ok"; if (curwarm >= warmmax + 0) { verdict = "ABOVE CAP"; fail = 1 }
    printf "%-36s %9.4f allocs/node (cap %.1f)  %s\n", target " warm", curwarm, warmmax, verdict
    # 5. busy-time balance: absolute bound.
    verdict = "ok"; if (curbal > balmax + 0) { verdict = "ABOVE CAP"; fail = 1 }
    printf "%-36s %9.3f max/mean busy (cap %.2f)  %s\n", target " balance", curbal, balmax, verdict
    if (fail) {
        print "bench_check.sh: scale gate failed — investigate or re-baseline with scripts/bench.sh" > "/dev/stderr"
        exit 1
    }
    print "bench_check.sh: scale within gates"
}'; then
    failed="$failed scale"
fi

if [ -n "$failed" ]; then
    echo "bench_check.sh: failed sections:$failed" >&2
    exit 1
fi
