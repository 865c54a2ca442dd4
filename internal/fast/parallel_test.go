package fast

import (
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// checkBestSerialRun fails unless got, the PFAST or multi-start
// schedule for opts, places every node as the shortest of
// opts.Parallelism serial FAST runs does. Run w has seed Seed+w and,
// under MultiStart, list order w%3 (CPN-Dominate, b-level, static
// level); the first run wins ties.
func checkBestSerialRun(t testing.TB, cg *plan.CompiledGraph, procs int, opts Options, got *sched.Schedule) {
	t.Helper()
	var want *sched.Schedule
	for w := range opts.Parallelism {
		o := opts
		o.Parallelism, o.MultiStart, o.Seed = 1, false, opts.Seed+int64(w)
		if opts.MultiStart {
			o.Order = ListOrder(w % 3)
		}
		s, err := New(o).ScheduleCompiled(cg, procs)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || s.Length() < want.Length()-1e-12 {
			want = s
		}
	}
	for n := range cg.CSR.NumNodes() {
		if w, g := want.Of(dag.NodeID(n)), got.Of(dag.NodeID(n)); w != g {
			t.Fatalf("procs %d, %+v: node %d placed %+v, best serial run %+v", procs, opts, n, g, w)
		}
	}
}

// TestParallelStartsMatchBestSerialRun checks PFAST and multi-start
// against checkBestSerialRun, placement for placement, over the oracle
// corpus and three mixed graphs, several worker counts and list
// orders, on bounded and unbounded machines.
func TestParallelStartsMatchBestSerialRun(t *testing.T) {
	graphs := map[string]*dag.Graph{}
	for _, inst := range schedtest.OracleCorpus() {
		graphs["corpus/"+inst.Name] = inst.Graph
	}
	gauss, err := workload.GaussElim(6, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	random, err := workload.Random(workload.RandomOpts{V: 50, Seed: 3, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	layered, err := workload.LayeredCSR(workload.LayeredOpts{V: 48, Width: 6, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphs["gauss6"], graphs["random50"], graphs["layered48"] = gauss, random, layered.ToGraph()
	for name, g := range graphs {
		cg, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4, 0} {
			for _, multi := range []bool{false, true} {
				for _, workers := range []int{2, 3, 5} {
					for _, order := range []ListOrder{CPNDominate, BLevelOrder} {
						opts := Options{
							Seed: int64(3 * workers), Order: order,
							Parallelism: workers, MultiStart: multi,
						}
						got, err := New(opts).ScheduleCompiled(cg, procs)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkBestSerialRun(t, cg, procs, opts, got)
					}
				}
			}
		}
	}
}
