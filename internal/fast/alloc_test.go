package fast

import (
	"context"
	"math/rand"
	"testing"

	"fastsched/internal/plan"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

// TestWarmSchedulingAllocFree pins the tentpole's steady-state bound:
// once the graph is compiled and the scratch pool is warm, the
// scheduling internals — state acquisition, phase 1, the greedy local
// search, and release back to the pool — allocate nothing. The output
// Schedule construction is deliberately outside this bound (it is the
// caller's owned result and must be fresh per run), as is rand.New
// (covered by reusing one rng here, exactly what a pooled worker does).
func TestWarmSchedulingAllocFree(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	g, err := workload.Random(workload.RandomOpts{V: 200, Seed: 5, MeanInDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 8
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	run := func() {
		st := acquireState(cg.CPNDominate, cg.CSR, procs, telemetry{})
		st.initialReadyTime(0, nil)
		st.evaluate()
		if err := st.search(ctx, cg.Blocking, 32, 0, rng); err != nil {
			t.Fatal(err)
		}
		st.release()
	}
	run() // warm the pool to its fixed point
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm scheduling path allocates %.1f per run, want 0", n)
	}
}
