package fast

import (
	"math/rand"
	"runtime"
	"testing"

	"fastsched/internal/dag"
)

// TestParallelSearchDeterministicAcrossGOMAXPROCS is the regression
// test for the tie-break-by-worker-index claim: PFAST and multi-start
// with a fixed seed must produce byte-identical schedules on repeated
// runs and under different GOMAXPROCS values (i.e. different goroutine
// interleavings).
func TestParallelSearchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := randomLayeredGraph(rand.New(rand.NewSource(31)), 60)
	configs := map[string]Options{
		"pfast":      {Parallelism: 8, Seed: 7, MaxSteps: 96},
		"multistart": {Parallelism: 8, Seed: 7, MaxSteps: 96, MultiStart: true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for cname, opts := range configs {
		want, err := New(opts).Schedule(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxprocs := range []int{1, 2, runtime.NumCPU()} {
			runtime.GOMAXPROCS(maxprocs)
			for rep := 0; rep < 2; rep++ {
				got, err := New(opts).Schedule(g, 5)
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n < g.NumNodes(); n++ {
					if got.Of(dag.NodeID(n)) != want.Of(dag.NodeID(n)) {
						t.Fatalf("%s GOMAXPROCS=%d rep %d: node %d placed %+v, want %+v",
							cname, maxprocs, rep, n, got.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)))
					}
				}
			}
		}
	}
}
