// Package etf implements the ETF (Earliest Task First) scheduling
// algorithm of Hwang, Chow, Anger and Lee (SIAM J. Computing, 1989).
//
// At every step ETF computes the earliest possible start time of every
// ready node on every processor and schedules the (node, processor)
// pair with the globally smallest start time; ties between nodes are
// broken in favour of the larger static level. Time complexity is
// O(p·v^2).
package etf

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("etf: empty graph")

// Scheduler implements sched.Scheduler with the ETF algorithm.
type Scheduler struct{}

// New returns an ETF scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "ETF" }

// Schedule implements sched.Scheduler: it compiles g, which validates
// it, and runs the plan entry. procs <= 0 is treated as one processor
// per node ("more than enough").
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return nil, errEmpty
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, err
	}
	return s.ScheduleCompiled(cg, procs)
}

// ScheduleCompiled schedules against a plan compiled from a graph,
// reading its level tables and its Graph.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	g, l := cg.Graph, cg.Levels
	if g.NumNodes() == 0 {
		return nil, errEmpty
	}
	if procs <= 0 {
		procs = g.NumNodes()
	}
	v := g.NumNodes()
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "ETF"

	unschedParents := make([]int, v)
	dat := make([]*listsched.DATCache, v) // built when a node becomes ready
	ready := make([]bool, v)
	var readyCount int
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
		if unschedParents[i] == 0 {
			ready[i] = true
			dat[i] = listsched.NewDATCache(g, s, dag.NodeID(i))
			readyCount++
		}
	}

	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("etf: no ready node (cyclic graph?)")
		}
		listsched.ObserveReadyList(readyCount)
		bestNode := dag.None
		bestProc := -1
		bestStart := 0.0
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			for p := 0; p < procs; p++ {
				st := m.Proc(p).EarliestStartAppend(dat[n].DAT(p))
				if better(bestNode, bestStart, n, st, l) {
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
				dat[e.To] = listsched.NewDATCache(g, s, e.To)
				readyCount++
			}
		}
	}
	return s, nil
}

// better reports whether candidate (n, start) beats the incumbent:
// smaller start wins; ties go to the higher static level, then to the
// smaller node ID for determinism. Processor ties resolve to the lowest
// index because candidates are scanned in order.
func better(curNode dag.NodeID, curStart float64, n dag.NodeID, start float64, l *dag.Levels) bool {
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
