// Package dls implements the DLS (Dynamic Level Scheduling) algorithm
// of Sih and Lee (IEEE TPDS, 1993).
//
// DLS defines the dynamic level of a (node, processor) pair as the
// node's static b-level minus its earliest start time on that processor
// and, at every step, schedules the ready pair with the largest dynamic
// level. Time complexity is O(p·e·v) in general (O(p·v^2) with the flat
// earliest-start model used here, since DAT computation is amortized
// over edges).
package dls

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("dls: empty graph")

// Scheduler implements sched.Scheduler with the DLS algorithm.
type Scheduler struct{}

// New returns a DLS scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "DLS" }

// Schedule implements sched.Scheduler: it compiles g, which validates
// it, and runs the plan entry. procs <= 0 is treated as one processor
// per node.
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
	s.Algorithm = "DLS"

	unschedParents := make([]int, v)
	dat := make([]*listsched.DATCache, v) // built when a node becomes ready
	ready := make([]bool, v)
	readyCount := 0
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
			return nil, errors.New("dls: no ready node (cyclic graph?)")
		}
		listsched.ObserveReadyList(readyCount)
		bestNode := dag.None
		bestProc := -1
		bestStart, bestDL := 0.0, 0.0
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			for p := 0; p < procs; p++ {
				st := m.Proc(p).EarliestStartAppend(dat[n].DAT(p))
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
				dat[e.To] = listsched.NewDATCache(g, s, e.To)
				readyCount++
			}
		}
	}
	return s, nil
}

// betterDL reports whether a candidate dynamic level beats the
// incumbent: larger DL wins, ties go to the smaller node ID (and the
// lowest processor index via scan order) for determinism.
func betterDL(curNode dag.NodeID, curDL float64, n dag.NodeID, dl float64) bool {
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
