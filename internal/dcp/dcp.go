// Package dcp implements DCP (Dynamic Critical Path scheduling; Kwok &
// Ahmad, IEEE TPDS 1996) — the FAST authors' own higher-effort
// algorithm from the same year, included here as the natural
// quality-oriented counterpart in the comparison suite.
//
// DCP tracks the critical path of the *partially scheduled* graph: at
// every step it recomputes the absolute earliest and latest start times
// (AEST/ALST, with communication zeroed between co-located tasks and
// scheduled tasks pinned at their start times), selects the ready node
// with the least mobility (ALST − AEST), and places it with insertion
// on the candidate processor that minimizes a one-step lookahead — the
// node's start time plus the estimated start time of its critical
// child on the same processor. DCP assumes an unbounded processor set;
// per-step recomputation makes it O(v^3) like MD.
package dcp

import (
	"errors"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the DCP algorithm.
type Scheduler struct{}

// New returns a DCP scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "DCP" }

// Schedule implements sched.Scheduler. DCP is defined for an unbounded
// processor set; positive procs caps the machine like MD's bounded
// fallback, procs <= 0 gives the published behaviour.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("dcp: empty graph")
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	order := l.Order
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "DCP"

	assigned := make([]bool, v)
	unschedParents := make([]int, v)
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
	}
	aest := make([]float64, v)
	alst := make([]float64, v) // stored as b-level first, then CP - b

	for scheduled := 0; scheduled < v; scheduled++ {
		cp := recompute(g, s, assigned, order, aest, alst)

		// Ready node with the smallest mobility; ties to smaller ALST
		// (earlier on the dynamic critical path), then smaller ID.
		best := dag.None
		bestMob, bestALST := math.Inf(1), math.Inf(1)
		for i := 0; i < v; i++ {
			n := dag.NodeID(i)
			if assigned[i] || unschedParents[i] > 0 {
				continue
			}
			mob := alst[n] - aest[n]
			if mob < bestMob-1e-9 || (mob < bestMob+1e-9 && alst[n] < bestALST-1e-9) {
				best, bestMob, bestALST = n, mob, alst[n]
			}
		}
		if best == dag.None {
			return nil, errors.New("dcp: no ready node (cyclic graph?)")
		}

		// Critical child: the unscheduled child with the least mobility
		// (the one whose start DCP's lookahead protects).
		cc := dag.None
		ccMob := math.Inf(1)
		for _, e := range g.Succ(best) {
			if assigned[e.To] {
				continue
			}
			if mob := alst[e.To] - aest[e.To]; mob < ccMob-1e-9 {
				cc, ccMob = e.To, mob
			}
		}

		w := g.Weight(best)
		// Candidate processors: those holding parents of best, plus one
		// empty processor (if available).
		cands := map[int]bool{}
		for _, e := range g.Pred(best) {
			cands[s.Proc(e.From)] = true
		}
		if f := m.FreshProc(); f >= 0 {
			cands[f] = true
		}
		if len(cands) == 0 {
			for p := 0; p < m.NumProcs(); p++ {
				cands[p] = true
			}
		}
		proc, start, score := -1, 0.0, math.Inf(1)
		for p := 0; p < m.NumProcs(); p++ {
			if !cands[p] {
				continue
			}
			st := m.Proc(p).EarliestStart(listsched.DAT(g, s, best, p), w)
			sc := st
			if cc != dag.None {
				sc += ccStart(g, s, assigned, aest, cc, p, best, st+w)
			}
			if sc < score-1e-9 || (sc < score+1e-9 && (proc == -1 || p < proc)) {
				proc, start, score = p, st, sc
			}
		}
		m.Proc(proc).Insert(best, start, w)
		s.Place(best, proc, start, start+w)
		assigned[best] = true
		for _, e := range g.Succ(best) {
			unschedParents[e.To]--
		}
		_ = cp
	}
	return s, nil
}

// ccStart estimates the critical child's start time if it were placed
// on processor p, given that parent `placed` finishes there at
// placedFinish: scheduled parents contribute real arrival times,
// unscheduled ones their AEST-based estimates.
func ccStart(g *dag.Graph, s *sched.Schedule, assigned []bool, aest []float64,
	cc dag.NodeID, p int, placed dag.NodeID, placedFinish float64) float64 {
	est := 0.0
	for _, e := range g.Pred(cc) {
		var arr float64
		switch {
		case e.From == placed:
			arr = placedFinish // co-located with the child: comm zeroed
		case assigned[e.From]:
			pl := s.Of(e.From)
			arr = pl.Finish
			if pl.Proc != p {
				arr += e.Weight
			}
		default:
			// Unscheduled parent: assume it keeps its estimated start and
			// pays full communication.
			arr = aest[e.From] + g.Weight(e.From) + e.Weight
		}
		if arr > est {
			est = arr
		}
	}
	return est
}

// recompute fills aest/alst on the partially scheduled graph and
// returns its critical-path length, mirroring MD's level recomputation.
func recompute(g *dag.Graph, s *sched.Schedule, assigned []bool, order []dag.NodeID, aest, alst []float64) float64 {
	commCost := func(e dag.Edge) float64 {
		if assigned[e.From] && assigned[e.To] && s.Proc(e.From) == s.Proc(e.To) {
			return 0
		}
		return e.Weight
	}
	for _, n := range order {
		if assigned[n] {
			aest[n] = s.Start(n)
			continue
		}
		t := 0.0
		for _, e := range g.Pred(n) {
			if cand := aest[e.From] + g.Weight(e.From) + commCost(e); cand > t {
				t = cand
			}
		}
		aest[n] = t
	}
	// alst holds b-levels during the backward pass.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		b := 0.0
		for _, e := range g.Succ(n) {
			if cand := commCost(e) + alst[e.To]; cand > b {
				b = cand
			}
		}
		alst[n] = g.Weight(n) + b
	}
	cp := 0.0
	for _, n := range order {
		if sum := aest[n] + alst[n]; sum > cp {
			cp = sum
		}
	}
	for _, n := range order {
		alst[n] = cp - alst[n]
	}
	return cp
}
