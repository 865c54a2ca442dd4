package fast

import (
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/plan"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// referenceReplay is an independent full evaluation: the pre-CSR,
// pre-checkpoint algorithm, walking g.Pred slices directly. The
// incremental kernel must reproduce it bit for bit.
func referenceReplay(g *dag.Graph, list []dag.NodeID, assign []int, procs int) (start, finish []float64, length float64) {
	start = make([]float64, g.NumNodes())
	finish = make([]float64, g.NumNodes())
	ready := make([]float64, procs)
	for _, n := range list {
		p := assign[n]
		var dat float64
		for _, e := range g.Pred(n) {
			arr := finish[e.From]
			if assign[e.From] != p {
				arr += e.Weight
			}
			if arr > dat {
				dat = arr
			}
		}
		s := dat
		if ready[p] > s {
			s = ready[p]
		}
		start[n] = s
		f := s + g.Weight(n)
		finish[n] = f
		ready[p] = f
		if f > length {
			length = f
		}
	}
	return start, finish, length
}

// newState builds a search state over g's CSR with fresh tables.
func newState(g *dag.Graph, list []dag.NodeID, procs int) *state {
	return newStateK(g, list, procs, checkpointInterval(procs))
}

// newStateK is newState with an explicit checkpoint interval, so tests
// can exercise degenerate spacings (K=1, K ≥ v).
func newStateK(g *dag.Graph, list []dag.NodeID, procs, ckK int) *state {
	st := &state{}
	st.init(list, dag.BuildCSR(g), procs, ckK)
	return st
}

// tryTransfer is tryCandidate without the cutoff: it moves n to p and
// replays the whole invalidated suffix, returning the schedule length.
// The caller keeps the move or calls revertTransfer.
func (st *state) tryTransfer(n dag.NodeID, p int) float64 {
	length, _, _ := st.replayFromBound(st.journalTransfer(n, p), math.Inf(1))
	return length
}

func stateList(t *testing.T, g *dag.Graph) []dag.NodeID {
	t.Helper()
	l, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	return plan.CPNDominateList(dag.BuildCSR(g), l, dag.Classify(g, l))
}

func assertTablesMatchReference(t *testing.T, g *dag.Graph, st *state, ctx string) {
	t.Helper()
	start, finish, length := referenceReplay(g, st.list, st.assign, st.procs)
	if st.length != length {
		t.Fatalf("%s: length %v, want %v", ctx, st.length, length)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if st.start[n] != start[n] || st.finish[n] != finish[n] {
			t.Fatalf("%s: node %d tables (%v,%v), want (%v,%v)",
				ctx, n, st.start[n], st.finish[n], start[n], finish[n])
		}
	}
}

// TestTryTransferRevertMatchesReference exercises the journaled kernel
// the search uses: tryTransfer must leave the tables consistent with
// the candidate assignment, and revertTransfer must restore the
// pre-transfer tables bit for bit (checkpoint rows included, which the
// subsequent transfers implicitly verify by replaying from them).
func TestTryTransferRevertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		g := schedtest.RandomLayered(rng, 2+rng.Intn(90))
		list := stateList(t, g)
		procs := 1 + rng.Intn(6)
		for _, k := range []int{1, 5, 16, 1 << 20} {
			st := newStateK(g, list, procs, k)
			st.initialReadyTime(0, nil)
			st.evaluate()
			for step := 0; step < 120; step++ {
				n := dag.NodeID(rng.Intn(g.NumNodes()))
				p := rng.Intn(procs)
				if p == st.assign[n] {
					continue
				}
				st.tryTransfer(n, p)
				assertTablesMatchReference(t, g, st, "after tryTransfer")
				if rng.Intn(2) == 0 {
					st.revertTransfer()
					assertTablesMatchReference(t, g, st, "after revertTransfer")
				}
			}
		}
	}
}

// differentialWorkloads builds the ≥3 workloads of the acceptance
// criteria: the paper's example DAG, a Gaussian-elimination application
// graph, and a dense random DAG.
func differentialWorkloads(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	gauss, err := workload.GaussElim(8, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	random, err := workload.Random(workload.RandomOpts{V: 120, Seed: 5, MeanInDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dag.Graph{
		"example": example.Graph(),
		"gauss8":  gauss,
		"random":  random,
	}
}

// TestSearchStrategiesMatchFullReplay is the end-to-end differential
// test: the serial search and budgetless PFAST run with the incremental
// kernel must produce the exact schedule — same length, same
// start/finish table, same processor per node — as the same run with
// checkpointing disabled (every replay starts at list position 0),
// across 3 workloads × 5 seeds.
func TestSearchStrategiesMatchFullReplay(t *testing.T) {
	configs := map[string]Options{
		"greedy": {MaxSteps: 128},
		"pfast":  {Parallelism: 4, MaxSteps: 64},
	}
	for wname, g := range differentialWorkloads(t) {
		for cname, opts := range configs {
			for seed := int64(0); seed < 5; seed++ {
				opts.Seed = seed
				inc, err := New(opts).Schedule(g, 6)
				if err != nil {
					t.Fatal(err)
				}
				debugFullReplay = true
				full, err := New(opts).Schedule(g, 6)
				debugFullReplay = false
				if err != nil {
					t.Fatal(err)
				}
				if inc.Length() != full.Length() {
					t.Fatalf("%s/%s seed %d: incremental length %v, full replay %v",
						wname, cname, seed, inc.Length(), full.Length())
				}
				for n := 0; n < g.NumNodes(); n++ {
					if inc.Of(dag.NodeID(n)) != full.Of(dag.NodeID(n)) {
						t.Fatalf("%s/%s seed %d: node %d placed %+v incrementally, %+v under full replay",
							wname, cname, seed, n, inc.Of(dag.NodeID(n)), full.Of(dag.NodeID(n)))
					}
				}
			}
		}
	}
}

// TestBudgetAcceptedInEveryShape: a budgeted run succeeds serially and
// in PFAST's and multi-start's starts.
func TestBudgetAcceptedInEveryShape(t *testing.T) {
	g := example.Graph()
	for _, opts := range []Options{
		{Budget: 1, Seed: 1},
		{Budget: 1, Seed: 1, Parallelism: 3},
		{Budget: 1, Seed: 1, Parallelism: 3, MultiStart: true},
	} {
		if _, err := New(opts).Schedule(g, 4); err != nil {
			t.Fatalf("Budget options %+v rejected: %v", opts, err)
		}
	}
}
