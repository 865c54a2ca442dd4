package fast

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/workload"
)

// benchSearchState builds a paper-scale search state: the Fig-8 random
// DAG density (v=2000, ≈36 parents per node) on a 128-processor
// machine, with phase 1 done and the blocking list ready.
func benchSearchState(b *testing.B) (*state, []dag.NodeID) {
	b.Helper()
	g, err := workload.Random(workload.RandomOpts{V: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	st := newState(g, cg.CPNDominate, 128)
	st.initialReadyTime(0, nil)
	st.evaluate()
	return st, cg.Blocking
}

// BenchmarkEvaluateFull: the pre-incremental per-step cost — one full
// O(e) replay of the whole list.
func BenchmarkEvaluateFull(b *testing.B) {
	st, _ := benchSearchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.evaluate()
	}
}

// BenchmarkEvaluateIncremental: one move's evaluation work under the
// incremental kernel — transfer a random blocking node, replay the whole
// suffix from its list position (tryTransfer, with no cutoff), revert
// (the common rejected-move case).
func BenchmarkEvaluateIncremental(b *testing.B) {
	st, blocking := benchSearchState(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := blocking[rng.Intn(len(blocking))]
		p := rng.Intn(st.procs)
		if p == st.assign[n] {
			continue
		}
		st.tryTransfer(n, p)
		st.revertTransfer()
	}
}

// BenchmarkSearchStep: whole search steps (move selection + evaluation +
// accept/reject bookkeeping) with the incremental kernel against forced
// full replay. Each step runs state.search's replay, which stops once
// the move cannot be accepted, so a rejected step replays less than
// BenchmarkEvaluateIncremental's. The full/incremental ratio is the
// kernel's recorded speedup (see scripts/bench.sh → BENCH_search.json).
func BenchmarkSearchStep(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			st, blocking := benchSearchState(b)
			st.fullReplay = mode == "full"
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			st.search(context.Background(), blocking, b.N, 0, rng)
		})
	}
}

// BenchmarkPFASTWallClock measures one whole PFAST scheduling run
// (phase 1 on every start variant + 8 cooperating searchers with
// work stealing) at different GOMAXPROCS settings. On multi-core
// machines wall-clock should fall monotonically as GOMAXPROCS grows
// toward the worker count; scripts/bench.sh records the curve into
// BENCH_throughput.json. Note the deterministic reported result is
// identical at every setting — only the wall-clock changes.
func BenchmarkPFASTWallClock(b *testing.B) {
	g, err := workload.Random(workload.RandomOpts{V: 600, Seed: 7, MeanInDegree: 4})
	if err != nil {
		b.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", p), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(prev)
			s := New(Options{Parallelism: 8, Seed: 42})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleCompiled(cg, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
