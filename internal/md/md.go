// Package md implements the MD (Mobility Directed) scheduling algorithm
// of Wu and Gajski (Hypertool; IEEE TPDS, 1990).
//
// MD repeatedly selects the ready node with the smallest *relative
// mobility* — (ALAP − ASAP)/w(n), computed on the partially scheduled
// graph in which communication edges between co-located tasks are
// zeroed — and inserts it into the first processor that can accommodate
// it within its mobility window, opening a new processor only when no
// existing one can. The per-step recomputation of mobilities makes the
// algorithm O(v^3); MD assumes an unbounded processor set.
package md

import (
	"errors"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the MD algorithm.
type Scheduler struct{}

// New returns an MD scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "MD" }

// Schedule implements sched.Scheduler. MD is defined for an unbounded
// processor set; procs therefore only caps the machine when positive,
// and procs <= 0 yields the paper's unbounded behaviour.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("md: empty graph")
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	order := l.Order
	m := listsched.NewMachine(procs) // procs<=0: unbounded machine
	s := sched.New(v)
	s.Algorithm = "MD"

	assigned := make([]bool, v)
	unschedParents := make([]int, v)
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
	}
	tl := make([]float64, v) // scratch t-levels on the partial graph
	bl := make([]float64, v) // scratch b-levels on the partial graph

	for scheduled := 0; scheduled < v; scheduled++ {
		cp := recomputeLevels(g, s, assigned, order, tl, bl)

		// Select the ready node with the smallest relative mobility.
		best := dag.None
		bestMob := math.Inf(1)
		for i := 0; i < v; i++ {
			n := dag.NodeID(i)
			if assigned[i] || unschedParents[i] > 0 {
				continue
			}
			mob := cp - (tl[n] + bl[n]) // ALAP - ASAP
			if w := g.Weight(n); w > 0 {
				mob /= w
			}
			if mob < bestMob-1e-12 {
				best, bestMob = n, mob
			}
		}
		if best == dag.None {
			return nil, errors.New("md: no ready node (cyclic graph?)")
		}

		w := g.Weight(best)
		alap := cp - bl[best]
		// First processor that accommodates the node within its mobility
		// window [ASAP, ALAP]; insertion into idle gaps is allowed.
		proc, start := -1, 0.0
		for p := 0; p < m.NumProcs(); p++ {
			st := m.Proc(p).EarliestStart(listsched.DAT(g, s, best, p), w)
			if st <= alap+1e-9 {
				proc, start = p, st
				break
			}
		}
		if proc == -1 {
			if f := m.FreshProc(); f >= 0 {
				proc = f
				start = m.Proc(proc).EarliestStart(listsched.DAT(g, s, best, proc), w)
			} else {
				// Bounded machine with no fitting window: fall back to the
				// earliest start anywhere.
				for p := 0; p < m.NumProcs(); p++ {
					st := m.Proc(p).EarliestStart(listsched.DAT(g, s, best, p), w)
					if proc == -1 || st < start {
						proc, start = p, st
					}
				}
			}
		}
		m.Proc(proc).Insert(best, start, w)
		s.Place(best, proc, start, start+w)
		assigned[best] = true
		for _, e := range g.Succ(best) {
			unschedParents[e.To]--
		}
	}
	return s, nil
}

// recomputeLevels fills tl and bl with the t- and b-levels of the
// partially scheduled graph: edges between co-located scheduled nodes
// count as zero-cost, and a scheduled node's t-level is pinned to its
// actual start time. Returns the current critical-path length.
func recomputeLevels(g *dag.Graph, s *sched.Schedule, assigned []bool, order []dag.NodeID, tl, bl []float64) float64 {
	commCost := func(e dag.Edge) float64 {
		if assigned[e.From] && assigned[e.To] && s.Proc(e.From) == s.Proc(e.To) {
			return 0
		}
		return e.Weight
	}
	for _, n := range order {
		if assigned[n] {
			tl[n] = s.Start(n)
			continue
		}
		t := 0.0
		for _, e := range g.Pred(n) {
			cand := tl[e.From] + g.Weight(e.From) + commCost(e)
			if cand > t {
				t = cand
			}
		}
		tl[n] = t
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		b := 0.0
		for _, e := range g.Succ(n) {
			if cand := commCost(e) + bl[e.To]; cand > b {
				b = cand
			}
		}
		bl[n] = g.Weight(n) + b
	}
	cp := 0.0
	for _, n := range order {
		if sum := tl[n] + bl[n]; sum > cp {
			cp = sum
		}
	}
	return cp
}
