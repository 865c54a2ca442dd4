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
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("ish: empty graph")

// Scheduler implements sched.Scheduler with the ISH algorithm.
type Scheduler struct{}

// New returns an ISH scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "ISH" }

// Schedule implements sched.Scheduler through the plan entry. procs <= 0
// is treated as one processor per node.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// static levels.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, static := cg.CSR, cg.Static()
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	if procs <= 0 {
		procs = v
	}
	// A processor's ready time is the latest finish on its timeline,
	// which a hole filler may set: the fill test lets a filler end up to
	// 1e-12 after the main node whose gap it fills.
	tl := make([]listsched.Timeline, procs)
	proc := make([]int32, v)
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	// A ready node's parents never move, so its data arrival is priced
	// once, when it becomes ready.
	dat := make([]listsched.DAT, v)
	ready := make([]bool, v)
	readyCount, placed := 0, 0
	for n := range v {
		if unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]; unschedParents[n] == 0 {
			ready[n], dat[n] = true, listsched.DATOf(c, n, proc, finish)
			readyCount++
		}
	}
	place := func(n, p int, st float64) {
		tl[p].Insert(dag.NodeID(n), st, c.NodeW[n])
		proc[n], start[n], finish[n] = int32(p), st, st+c.NodeW[n]
		ready[n] = false
		readyCount--
		placed++
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			if unschedParents[to]--; unschedParents[to] == 0 {
				ready[to], dat[to] = true, listsched.DATOf(c, to, proc, finish)
				readyCount++
			}
		}
	}

	for readyCount > 0 {
		// HLFET selection: highest static level among ready nodes.
		best := -1
		for n := range v {
			if ready[n] && (best < 0 || static[n] > static[best]) {
				best = n
			}
		}
		// Earliest-start processor without insertion (the gap the node
		// leaves is what ISH then tries to fill).
		p, st := -1, 0.0
		for q := range procs {
			if s := max(tl[q].ReadyTime(), dat[best].On(q)); p == -1 || s < st {
				p, st = q, s
			}
		}
		gapStart := tl[p].ReadyTime()
		place(best, p, st)

		// Hole filling: while an idle gap [gapStart, st) remains, put the
		// highest-SL ready node that fits entirely inside it (its DAT
		// allows starting in the gap and it ends before the gap closes).
		// A child best just made ready may have its parent on p finish
		// after gapStart, which the DAT's local term keeps it behind.
		for gapStart < st {
			filler, fillerStart := -1, 0.0
			for n := range v {
				if !ready[n] {
					continue
				}
				fs := max(dat[n].On(p), gapStart)
				if fs+c.NodeW[n] <= st+1e-12 && (filler < 0 || static[n] > static[filler]) {
					filler, fillerStart = n, fs
				}
			}
			if filler < 0 {
				break
			}
			place(filler, p, fillerStart)
			gapStart = finish[filler]
		}
	}
	switch {
	case placed == 0:
		return nil, errors.New("ish: no node scheduled (cyclic graph?)")
	case placed < v:
		return nil, errors.New("ish: unscheduled node remains (cyclic graph?)")
	}
	return sched.FromArrays("ISH", 0, proc, start, finish), nil
}
