package listsched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/dls"
	"fastsched/internal/etf"
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// directDAT is node n's data arrival on processor p by definition: the
// latest over its parents, all placed in s, of the finish time plus the
// message cost, which a parent on p does not pay.
func directDAT(g *dag.Graph, s *sched.Schedule, n dag.NodeID, p int) float64 {
	var dat float64
	for _, e := range g.Pred(n) {
		pl := s.Of(e.From)
		arr := pl.Finish
		if pl.Proc != p {
			arr += e.Weight
		}
		dat = max(dat, arr)
	}
	return dat
}

// oracleETF is ETF as it was before the pair loop: a machine of
// timelines priced by the direct walk, over the *dag.Graph.
func oracleETF(g *dag.Graph, l *dag.Levels, procs int) (*sched.Schedule, error) {
	better := func(curNode dag.NodeID, curStart float64, n dag.NodeID, start float64) bool {
		if curNode == dag.None {
			return true
		}
		const eps = 1e-12
		switch {
		case start < curStart-eps:
			return true
		case start > curStart+eps:
			return false
		case l.Static[n] != l.Static[curNode]:
			return l.Static[n] > l.Static[curNode]
		default:
			return n < curNode
		}
	}
	v := g.NumNodes()
	if procs <= 0 {
		procs = v
	}
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "ETF"
	unschedParents := make([]int, v)
	ready := make([]bool, v)
	var readyCount int
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
		if unschedParents[i] == 0 {
			ready[i] = true
			readyCount++
		}
	}
	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("etf: no ready node (cyclic graph?)")
		}
		bestNode := dag.None
		bestProc := -1
		bestStart := 0.0
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			for p := 0; p < procs; p++ {
				st := max(m.Proc(p).ReadyTime(), directDAT(g, s, n, p))
				if better(bestNode, bestStart, n, st) {
					bestNode, bestProc, bestStart = n, p, st
				}
			}
		}
		w := g.Weight(bestNode)
		m.Proc(bestProc).Insert(bestNode, bestStart, w)
		s.Place(bestNode, bestProc, bestStart, bestStart+w)
		ready[bestNode] = false
		readyCount--
		for _, e := range g.Succ(bestNode) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				ready[e.To] = true
				readyCount++
			}
		}
	}
	return s, nil
}

// oracleDLS is DLS as it was before the pair loop, in the same form.
func oracleDLS(g *dag.Graph, l *dag.Levels, procs int) (*sched.Schedule, error) {
	betterDL := func(curNode dag.NodeID, curDL float64, n dag.NodeID, dl float64) bool {
		if curNode == dag.None {
			return true
		}
		const eps = 1e-12
		switch {
		case dl > curDL+eps:
			return true
		case dl < curDL-eps:
			return false
		default:
			return n < curNode
		}
	}
	v := g.NumNodes()
	if procs <= 0 {
		procs = v
	}
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "DLS"
	unschedParents := make([]int, v)
	ready := make([]bool, v)
	readyCount := 0
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
		if unschedParents[i] == 0 {
			ready[i] = true
			readyCount++
		}
	}
	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("dls: no ready node (cyclic graph?)")
		}
		bestNode := dag.None
		bestProc := -1
		bestStart, bestDL := 0.0, 0.0
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			for p := 0; p < procs; p++ {
				st := max(m.Proc(p).ReadyTime(), directDAT(g, s, n, p))
				dl := l.Static[n] - st
				if betterDL(bestNode, bestDL, n, dl) {
					bestNode, bestProc, bestStart, bestDL = n, p, st, dl
				}
			}
		}
		w := g.Weight(bestNode)
		m.Proc(bestProc).Insert(bestNode, bestStart, w)
		s.Place(bestNode, bestProc, bestStart, bestStart+w)
		ready[bestNode] = false
		readyCount--
		for _, e := range g.Succ(bestNode) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				ready[e.To] = true
				readyCount++
			}
		}
	}
	return s, nil
}

// pairCorpus is 140 graphs: the oracle corpus; §5.2 random graphs at
// v = 20, 60 and 150 with mean in-degree 3 and integer weights (so many
// ties), seeds 1–12, each as drawn and rescaled to CCR 0.1 and 10;
// unstructured random DAGs at v = 40, seeds 1–12; Gaussian elimination
// at n = 4, 8 and 12; and FFTs of 8 and 32 points.
func pairCorpus(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, in := range schedtest.OracleCorpus() {
		out[in.Name] = in.Graph
	}
	for _, v := range []int{20, 60, 150} {
		for seed := int64(1); seed <= 12; seed++ {
			for _, ccr := range []float64{0, 0.1, 10} {
				g, err := workload.Random(workload.RandomOpts{V: v, Seed: seed, MeanInDegree: 3})
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("random/v%d/seed%d/ccr%g", v, seed, ccr)] = timing.ScaleCCR(g, ccr)
			}
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		out[fmt.Sprintf("dag/v40/seed%d", seed)] = schedtest.RandomDAG(rand.New(rand.NewSource(seed)), 40, 0.1)
	}
	db := timing.ParagonLike()
	for _, n := range []int{4, 8, 12} {
		g, err := workload.GaussElim(n, db)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("gauss/%d", n)] = g
	}
	for _, pts := range []int{8, 32} {
		g, err := workload.FFT(pts, db)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fft/%d", pts)] = g
	}
	return out
}

var pairProcs = []int{0, 1, 2, 3, 4, 8, 16}

// sameSchedule fails unless a and b agree on every placement, bit for
// bit, on Algorithm and on Balance.
func sameSchedule(t *testing.T, name string, a, b *sched.Schedule) {
	t.Helper()
	if a.Algorithm != b.Algorithm || a.NumNodes() != b.NumNodes() || a.Balance() != b.Balance() {
		t.Fatalf("%s: %q/%d nodes/balance %v, want %q/%d/%v", name,
			a.Algorithm, a.NumNodes(), a.Balance(), b.Algorithm, b.NumNodes(), b.Balance())
	}
	for n := range a.NumNodes() {
		if pa, pb := a.Of(dag.NodeID(n)), b.Of(dag.NodeID(n)); pa != pb {
			t.Fatalf("%s: node %d at %+v, want %+v", name, n, pa, pb)
		}
	}
}

// TestSchedulePairsMatchesOracles pins ETF and DLS on the shared pair
// loop against their direct-walk forms above: 0 differences over the
// corpus and every processor count.
func TestSchedulePairsMatchesOracles(t *testing.T) {
	for name, g := range pairCorpus(t) {
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range pairProcs {
			for _, c := range []struct {
				s      sched.Scheduler
				oracle func(*dag.Graph, *dag.Levels, int) (*sched.Schedule, error)
			}{{etf.New(), oracleETF}, {dls.New(), oracleDLS}} {
				got, err := c.s.Schedule(g, procs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.oracle(g, l, procs)
				if err != nil {
					t.Fatal(err)
				}
				sameSchedule(t, fmt.Sprintf("%s %s procs=%d", c.s.Name(), name, procs), got, want)
			}
		}
	}
}
