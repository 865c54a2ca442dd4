package dcp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// entryOnlyRule is DCP as it was before it took the bounded-machine
// candidate rule, kept as an oracle: once no processor is empty, only
// an entry node may consider every processor, and any other node only
// its parents' processors.
func entryOnlyRule(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, order := cg.CSR, cg.Levels.Order
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	m := listsched.NewMachine(procs)
	proc := make([]int32, v) // -1 while unscheduled
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	for n := range v {
		proc[n] = -1
		unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]
	}
	aest := make([]float64, v)
	alst := make([]float64, v)
	var cand []int // cand[q] == step+1: processor q is a candidate now

	for step := range v {
		cp := listsched.PartialLevels(c, order, proc, start, aest, alst)
		for n, b := range alst {
			alst[n] = cp - b
		}

		// Ready node with the smallest mobility; ties to smaller ALST
		// (earlier on the dynamic critical path), then smaller ID.
		best := -1
		bestMob, bestALST := math.Inf(1), math.Inf(1)
		for n := range v {
			if proc[n] >= 0 || unschedParents[n] > 0 {
				continue
			}
			mob := alst[n] - aest[n]
			if mob < bestMob-1e-9 || (mob < bestMob+1e-9 && alst[n] < bestALST-1e-9) {
				best, bestMob, bestALST = n, mob, alst[n]
			}
		}
		if best < 0 {
			return nil, errors.New("dcp: no ready node (cyclic graph?)")
		}

		// Critical child: the unscheduled child with the least mobility
		// (the one whose start DCP's lookahead protects).
		cc := int32(-1)
		ccMob := math.Inf(1)
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			to := c.SuccTo[s]
			if proc[to] >= 0 {
				continue
			}
			if mob := alst[to] - aest[to]; mob < ccMob-1e-9 {
				cc, ccMob = to, mob
			}
		}

		w := c.NodeW[best]
		// Candidate processors: those holding parents of best, plus one
		// empty processor (if available), or every processor when that
		// leaves none.
		fresh := m.FreshProc()
		for len(cand) < m.NumProcs() {
			cand = append(cand, 0)
		}
		mark := step + 1
		for s := c.PredOff[best]; s < c.PredOff[best+1]; s++ {
			cand[proc[c.PredFrom[s]]] = mark
		}
		if fresh >= 0 {
			cand[fresh] = mark
		}
		all := fresh < 0 && c.PredOff[best] == c.PredOff[best+1]
		dat := listsched.DATOf(c, best, proc, finish)
		p, st, score := -1, 0.0, math.Inf(1)
		for q := 0; q < m.NumProcs(); q++ {
			if !all && cand[q] != mark {
				continue
			}
			s := m.Proc(q).EarliestStart(dat.On(q), w)
			sc := s
			if cc >= 0 {
				sc += ccStart(c, proc, finish, aest, cc, q, int32(best), s+w)
			}
			if sc < score-1e-9 || (sc < score+1e-9 && (p == -1 || q < p)) {
				p, st, score = q, s, sc
			}
		}
		m.Proc(p).Insert(dag.NodeID(best), st, w)
		proc[best], start[best], finish[best] = int32(p), st, st+w
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			unschedParents[c.SuccTo[s]]--
		}
	}
	return sched.FromArrays("DCP", 0, proc, start, finish), nil
}

// oracleGraphs is the oracle corpus plus a few larger shapes.
func oracleGraphs() map[string]*dag.Graph {
	gs := map[string]*dag.Graph{"example": example.Graph(), "forkjoin/w100": uniformForkJoin(100, 10, 50)}
	for _, inst := range schedtest.OracleCorpus() {
		gs[inst.Name] = inst.Graph
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		gs["random/"+string(rune('a'+i))] = schedtest.RandomDAG(rng, 40, 0.15)
	}
	return gs
}

// uniformForkJoin is a fork-join of the given width with every node
// weight w and every edge comm.
func uniformForkJoin(width int, w, comm float64) *dag.Graph {
	g := dag.New(width + 2)
	src := g.AddNode("src", w)
	sink := g.AddNode("sink", w)
	for i := 0; i < width; i++ {
		n := g.AddNode("", w)
		g.MustAddEdge(src, n, comm)
		g.MustAddEdge(n, sink, comm)
	}
	return g
}

// TestBitIdenticalWhileAProcessorIsEmpty: the rule change only reaches
// a node placed once every processor is busy, so wherever an empty
// processor always remains — procs <= 0, procs >= v — DCP's schedule is
// bit-identical to the entry-only rule's.
func TestBitIdenticalWhileAProcessorIsEmpty(t *testing.T) {
	for name, g := range oracleGraphs() {
		cg, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		v := g.NumNodes()
		for _, procs := range []int{0, -1, v, v + 3} {
			want, err := entryOnlyRule(cg, procs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New().ScheduleCompiled(cg, procs)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < v; n++ {
				if got.Of(dag.NodeID(n)) != want.Of(dag.NodeID(n)) {
					t.Fatalf("%s procs %d: node %d at %+v, the entry-only rule %+v", name, procs, n, got.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)))
				}
			}
		}
	}
}

// TestBoundedRuleOnForkJoin: on a bounded machine a fork-join's middle
// nodes have one parent each, so the entry-only rule stacks them on the
// source's processor; the bounded rule spreads them.
func TestBoundedRuleOnForkJoin(t *testing.T) {
	g := uniformForkJoin(100, 10, 50)
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		procs     int
		old, want float64
	}{{4, 990, 350}, {16, 870, 180}} {
		old, err := entryOnlyRule(cg, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New().ScheduleCompiled(cg, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, got); err != nil {
			t.Fatal(err)
		}
		if old.Length() != tc.old || got.Length() != tc.want {
			t.Errorf("p=%d: makespan %v (entry-only rule %v), want %v (%v)", tc.procs, got.Length(), old.Length(), tc.want, tc.old)
		}
	}
}
