// Package hlfet implements HLFET (Highest Level First with Estimated
// Times; Adam, Chandy, Dickson 1974), one of the classical list
// scheduling algorithms in the comparison suite the FAST paper draws
// its baselines from.
//
// HLFET orders nodes by descending static level (computation-only
// b-level) and, at each step, places the ready node with the highest
// static level on the processor that allows the earliest start time
// (no insertion). Time complexity is O(v² + p·v + e).
package hlfet

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("hlfet: empty graph")

// Scheduler implements sched.Scheduler with the HLFET algorithm.
type Scheduler struct{}

// New returns an HLFET scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "HLFET" }

// Schedule implements sched.Scheduler through the plan entry. procs
// <= 0 is treated as one processor per node.
func (h *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, h.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// static levels, so a plan compiled from a CSR alone serves too.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	return schedule(cg.CSR, cg.Static(), procs)
}

// ScheduleCSR is the CSR-only entry point: it compiles a plan from c
// (plan.CompileCompact), which trusts c as its builder validated it,
// and the whole run touches nothing but flat arrays — no *dag.Graph and
// no per-node maps. procs <= 0 is treated as one processor per node.
func (h *Scheduler) ScheduleCSR(c *dag.CSR, procs int) (*sched.Flat, error) {
	if c.NumNodes() == 0 {
		return nil, errEmpty
	}
	cg, err := plan.CompileCompact(c, nil)
	if err != nil {
		return nil, err
	}
	return h.ScheduleCompiled(cg, procs)
}

// schedule is HLFET's one loop. Each step scans the ready nodes for the
// highest static level (ties to the smaller ID), then the processors
// for the earliest start (ties to the lower index), each priced in O(1)
// from the node's arrivals, swept once over its predecessor slots.
func schedule(c *dag.CSR, static []float64, procs int) (*sched.Schedule, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	if procs <= 0 {
		procs = v
	}
	assign := make([]int32, v)
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	ready := make([]bool, v)
	readyCount := 0
	for n := 0; n < v; n++ {
		unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]
		if unschedParents[n] == 0 {
			ready[n] = true
			readyCount++
		}
	}
	procReady := make([]float64, procs) // append-only timelines: last finish
	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("hlfet: no ready node (cyclic graph?)")
		}
		listsched.ObserveReadyList(readyCount)
		best := -1
		for n := 0; n < v; n++ {
			if ready[n] && (best < 0 || static[n] > static[best]) {
				best = n
			}
		}
		arr := listsched.ArrivalsOf(c, best, assign, finish)
		proc, st := -1, 0.0
		for p := 0; p < procs; p++ {
			if t := arr.StartOn(p, procReady[p]); proc == -1 || t < st {
				proc, st = p, t
			}
		}
		assign[best] = int32(proc)
		start[best] = st
		finish[best] = st + c.NodeW[best]
		procReady[proc] = finish[best]
		ready[best] = false
		readyCount--
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			to := c.SuccTo[s]
			unschedParents[to]--
			if unschedParents[to] == 0 {
				ready[to] = true
				readyCount++
			}
		}
	}
	return sched.FromArrays("HLFET", procs, assign, start, finish), nil
}
