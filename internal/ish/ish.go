// Package ish implements ISH (Insertion Scheduling Heuristic;
// Kruatrachue & Lewis, 1987): HLFET's static-level list scheduling
// augmented with hole filling — when placing the selected node leaves
// an idle gap on its processor, other ready nodes that fit inside the
// gap are scheduled into it first.
package ish

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the ISH algorithm.
type Scheduler struct{}

// New returns an ISH scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "ISH" }

// Schedule implements sched.Scheduler. procs <= 0 is treated as one
// processor per node.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("ish: empty graph")
	}
	if procs <= 0 {
		procs = v
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "ISH"

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
	place := func(n dag.NodeID, proc int, start float64) {
		w := g.Weight(n)
		m.Proc(proc).Insert(n, start, w)
		s.Place(n, proc, start, start+w)
		ready[n] = false
		readyCount--
		for _, e := range g.Succ(n) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				ready[e.To] = true
				readyCount++
			}
		}
	}

	for readyCount > 0 {
		// HLFET selection: highest static level among ready nodes.
		best := dag.None
		for i := 0; i < v; i++ {
			if ready[i] && (best == dag.None || l.Static[dag.NodeID(i)] > l.Static[best]) {
				best = dag.NodeID(i)
			}
		}
		// Earliest-start processor without insertion (the gap the node
		// leaves is what ISH then tries to fill).
		cache := listsched.NewDATCache(g, s, best)
		proc, start := -1, 0.0
		for p := 0; p < procs; p++ {
			st := m.Proc(p).EarliestStartAppend(cache.DAT(p))
			if proc == -1 || st < start {
				proc, start = p, st
			}
		}
		gapStart := m.Proc(proc).ReadyTime()
		place(best, proc, start)

		// Hole filling: while an idle gap [gapStart, start) remains, put
		// the highest-SL ready node that fits entirely inside it (its
		// DAT allows starting in the gap and it ends before the gap
		// closes).
		for gapStart < start {
			filler := dag.None
			fillerStart := 0.0
			for i := 0; i < v; i++ {
				if !ready[i] {
					continue
				}
				n := dag.NodeID(i)
				st := listsched.DAT(g, s, n, proc)
				if st < gapStart {
					st = gapStart
				}
				if st+g.Weight(n) <= start+1e-12 {
					if filler == dag.None || l.Static[n] > l.Static[filler] {
						filler, fillerStart = n, st
					}
				}
			}
			if filler == dag.None {
				break
			}
			place(filler, proc, fillerStart)
			gapStart = fillerStart + g.Weight(filler)
		}
	}
	if s.ProcsUsed() == 0 && v > 0 {
		return nil, errors.New("ish: no node scheduled (cyclic graph?)")
	}
	for i := 0; i < v; i++ {
		if !s.Assigned(dag.NodeID(i)) {
			return nil, errors.New("ish: unscheduled node remains (cyclic graph?)")
		}
	}
	return s, nil
}
