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
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("md: empty graph")

// Scheduler implements sched.Scheduler with the MD algorithm.
type Scheduler struct{}

// New returns an MD scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "MD" }

// Schedule implements sched.Scheduler through the plan entry. MD is
// defined for an unbounded processor set; procs therefore only caps the
// machine when positive, and procs <= 0 yields the paper's unbounded
// behaviour.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// topological order.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, order := cg.CSR, cg.Levels.Order
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	m := listsched.NewMachine(procs) // procs<=0: unbounded machine
	proc := make([]int32, v)         // -1 while unscheduled
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	for n := range v {
		proc[n] = -1
		unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]
	}
	tl := make([]float64, v) // scratch t-levels on the partial graph
	bl := make([]float64, v) // scratch b-levels on the partial graph

	for range v {
		cp := listsched.PartialLevels(c, order, proc, start, tl, bl)

		// Select the ready node with the smallest relative mobility.
		best := -1
		bestMob := math.Inf(1)
		for n := range v {
			if proc[n] >= 0 || unschedParents[n] > 0 {
				continue
			}
			mob := cp - (tl[n] + bl[n]) // ALAP - ASAP
			if w := c.NodeW[n]; w > 0 {
				mob /= w
			}
			if mob < bestMob-1e-12 {
				best, bestMob = n, mob
			}
		}
		if best < 0 {
			return nil, errors.New("md: no ready node (cyclic graph?)")
		}

		w := c.NodeW[best]
		alap := cp - bl[best]
		dat := listsched.DATOf(c, best, proc, finish)
		// First processor that accommodates the node within its mobility
		// window [ASAP, ALAP]; insertion into idle gaps is allowed.
		p, st := -1, 0.0
		for q := 0; q < m.NumProcs(); q++ {
			if s := m.Proc(q).EarliestStart(dat.On(q), w); s <= alap+1e-9 {
				p, st = q, s
				break
			}
		}
		if p == -1 {
			if f := m.FreshProc(); f >= 0 {
				p = f
				st = m.Proc(p).EarliestStart(dat.On(p), w)
			} else {
				// Bounded machine with no fitting window: fall back to the
				// earliest start anywhere.
				for q := 0; q < m.NumProcs(); q++ {
					if s := m.Proc(q).EarliestStart(dat.On(q), w); p == -1 || s < st {
						p, st = q, s
					}
				}
			}
		}
		m.Proc(p).Insert(dag.NodeID(best), st, w)
		proc[best], start[best], finish[best] = int32(p), st, st+w
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			unschedParents[c.SuccTo[s]]--
		}
	}
	return sched.FromArrays("MD", 0, proc, start, finish), nil
}
