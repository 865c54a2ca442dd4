#!/usr/bin/env bash
# Tier-1 gate plus a fuzz smoke pass and a benchmark regression check.
#
# Runs the checks every PR must keep green — build, vet, gofmt, tests, race
# tests — with a hard per-package test timeout, then gives each Fuzz*
# target a short seeded fuzzing burst (FUZZ_TIME per target, default
# 5s) so a regression in the parsers or the fault-injecting simulator
# shows up here instead of in a long offline fuzz run, then enforces
# the per-package coverage floors in COVERAGE.txt, and finally gates
# the FAST hot path against BENCH_search.json.
#
# Usage: scripts/ci.sh               # full tier-1 + fuzz smoke + coverage + bench gate
#        FUZZ_TIME=30s scripts/ci.sh # longer fuzz burst
#        SKIP_BENCH=1 scripts/ci.sh  # skip the benchmark gate
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZ_TIME="${FUZZ_TIME:-5s}"

echo "== build"
go build ./...

echo "== vet"
go vet ./...
go vet ./cmd/...
# bench/ is its own module, so the root ./... never reaches it.
(cd bench && go vet ./...)

echo "== gofmt"
# Every tracked Go file, bench/ included, must be gofmt-clean.
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
    echo "ci.sh: gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== test"
go test -timeout 120s ./...

echo "== test -race"
go test -race -timeout 120s ./...

echo "== benchmark module tests (plain and race)"
# bench/ is a Go module of its own, so the root ./... never reaches it.
# Its tests serve real requests through schedd and run every workload
# at toy sizes, check each response with sched.Validate, and fail on
# any failed operation.
(cd bench && go test -timeout 300s ./... && go test -race -timeout 300s ./...)

echo "== streaming scale smoke (v=100000, race)"
# The million-node serving path at CI scale: a layered DAG streamed
# from a generator goroutine through a pipe into the edge-list reader,
# scheduled hierarchically, and flat-validated — under the race
# detector, at 5x the default test size. The generator/parser pipe is
# the one genuinely concurrent stage of the ingest path. TestScaleSmoke
# also asserts the schedule's max/mean PE busy-time bound (1.5),
# so the one-PE-dominates regression fails here, at scale, under race.
# TestScaleArenaWarmZeroAllocs skips itself under -race (instrumentation
# allocates), hence the separate non-race invocation below.
# TestStreamEdgeListOracleAtScale holds the edge-list reader to the
# field-split oracle at this size, on the generated text (the canonical
# pass) and on the same graph with comments, tabs, CRLF endings and
# exponent-form weights interleaved (the fallback), slot for slot.
# TestStreamEdgeListChunkedOracleAtScale repeats that check reading a
# byte and half a buffer at a time, so lines cross the reader's refills.
FASTSCHED_SCALE_V=100000 go test -race -timeout 300s \
    -run 'TestScaleSmoke|TestScaleArenaWarmZeroAllocs|TestValidateFlatBig|TestStreamEdgeListOracleAtScale|TestStreamEdgeListChunkedOracleAtScale' \
    ./internal/fast ./internal/sched ./internal/dag

echo "== arena warm-path zero-alloc gate"
# The arena's allocation contract, enforced: after one cold pass the
# arena kernels (streaming parse, compact levels, classification,
# priority order) run with exactly zero allocations, and the whole
# arena-backed fast-hier scheduler with one (the schedule header).
# TestDecodeSubmitAllocs pins a schedd miss's graph decode to its
# measured allocations (pooled file-form lists, one string for all
# labels), so a per-node or per-label allocation fails here; the race
# run above skips it.
go test -timeout 120s -run 'TestScaleArenaWarmZeroAllocs' ./internal/fast
go test -timeout 120s -run 'TestDecodeSubmitAllocs' ./internal/server

echo "== schedd smoke (race)"
# The serving-layer lifecycle under the race detector: daemon start,
# submit, SIGTERM drain, restart from the snapshot, warm cache hit on
# replay — plus the drain-rejects-new-work contract. These are the
# kill-and-restart acceptance paths of the schedd service. The body
# index is then read, filled and evicted from by concurrent clients,
# and the one LRU behind every cache has its counters added up under
# concurrent Do, Get and failing fills, each ten times over.
go test -race -timeout 120s -run 'TestScheddSmoke|TestScheddDrainRejectsNewWork' ./cmd/schedd
go test -race -count=10 -timeout 120s -run 'TestBodyIndexConcurrentEviction' ./internal/server
go test -race -count=10 -timeout 120s -run 'TestCountersAddUp' ./internal/lru

echo "== chaos soak (race, ${SOAK_MS:-1000}ms)"
# A budgeted slice of the chaos harness: adversarial client
# populations, snapshot corruption, and a mid-drain restart, with
# goroutine-leak and payload-bit-identity assertions. FASTSCHED_SOAK_MS
# scales the soak window; scripts/soak.sh runs the long version.
FASTSCHED_SOAK_MS="${SOAK_MS:-1000}" go test -race -timeout 300s \
    -run 'TestChaosSoak|TestQuotaFairnessUnderLoad' ./internal/server

echo "== online chaos soak (race, ${ONLINE_SOAK_MS:-1000}ms)"
# The multi-DAG workload engine under fire: seeded Poisson/bursty
# arrival streams with deadlines and tenants, mixed packing policies
# and delegates, and mid-stream processor crashes repaired through the
# rescheduler. Every iteration validates all realized schedules,
# machine-level exclusivity and the miss accounting, then replays the
# run and asserts a bit-identical JSONL trace — under the race
# detector. ONLINE_SOAK_MS scales the soak window.
FASTSCHED_ONLINE_SOAK_MS="${ONLINE_SOAK_MS:-1000}" go test -race -timeout 300s \
    -run 'TestOnlineChaosSoak' ./internal/online

echo "== exact-solver expansion regression"
# The branch-and-bound pruning stack is gated by pinned per-instance
# expansion ceilings on the oracle corpus (internal/optimal
# regression_test.go): a change that weakens a bound, a dominance rule
# or the duplicate table fails here in under a second instead of
# silently making the oracle suites 100x slower. The solver golden
# (golden_test.go) pins the serial search exactly: each canonical
# schedule and expansion count on the corpus and on small random DAGs.
go test -timeout 120s -run 'TestExpansionBudgetRegression|TestSolverGolden' ./internal/optimal

echo "== fuzz smoke (${FUZZ_TIME} per target)"
# Discover every fuzz target; each needs its own `go test -fuzz` run
# (the fuzz engine takes exactly one target per invocation). The loops
# feed from process substitution, not a pipeline, so `fuzz_fail`
# survives into the final check and one failing target does not stop
# the remaining targets from running.
fuzz_fail=0
while read -r file; do
    pkg="./$(dirname "${file#./}")"
    while read -r target; do
        echo "-- ${pkg} ${target}"
        if ! go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZ_TIME" "$pkg"; then
            echo "ci.sh: fuzz target ${target} in ${pkg} FAILED" >&2
            fuzz_fail=1
        fi
    done < <(grep -o 'func Fuzz[A-Za-z0-9_]*' "$file" | sed 's/func //')
done < <(grep -rln 'func Fuzz' --include='*_test.go' . | sort -u)
if [ "$fuzz_fail" -ne 0 ]; then
    echo "ci.sh: fuzz smoke failed" >&2
    exit 1
fi

echo "== coverage gate"
# COVERAGE.txt lists per-package statement-coverage floors. Each gated
# package is retested with -cover and its percentage compared against
# the floor; a drop below fails the gate.
cover_fail=0
while read -r pkg floor; do
    case "$pkg" in ''|'#'*) continue ;; esac
    line="$(go test -cover "$pkg" | tail -n 1)"
    pct="$(printf '%s\n' "$line" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')"
    if [ -z "$pct" ]; then
        echo "ci.sh: no coverage figure for ${pkg}: ${line}" >&2
        cover_fail=1
        continue
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "ci.sh: ${pkg} coverage ${pct}% fell below the ${floor}% floor" >&2
        cover_fail=1
    else
        echo "-- ${pkg} ${pct}% (floor ${floor}%)"
    fi
done < COVERAGE.txt
if [ "$cover_fail" -ne 0 ]; then
    echo "ci.sh: coverage gate failed" >&2
    exit 1
fi

if [ "${SKIP_BENCH:-0}" != "1" ]; then
    echo "== bench gate"
    scripts/bench_check.sh
fi

echo "ci.sh: all green"
