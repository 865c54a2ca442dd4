// Package mh implements MH (Mapping Heuristic; El-Rewini & Lewis,
// 1990), the classical *topology-aware* list scheduler from the same
// survey family as the other baselines: like ETF it schedules the ready
// node with the earliest start time, but message arrival accounts for
// the interconnect distance between processors (here the Paragon-style
// 2D mesh of package sim). With a zero topology MH degenerates to an
// ETF variant prioritized by static level.
package mh

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

var errEmpty = errors.New("mh: empty graph")

// Scheduler implements sched.Scheduler with the MH algorithm.
type Scheduler struct {
	// Topology is the interconnect model; the zero value is
	// distance-free.
	Topology sim.Mesh
}

// New returns an MH scheduler for the given mesh.
func New(topology sim.Mesh) *Scheduler { return &Scheduler{Topology: topology} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "MH" }

// Schedule implements sched.Scheduler through the plan entry. procs <= 0
// is treated as one processor per node.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// static levels.
func (s *Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, static := cg.CSR, cg.Static()
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	if procs <= 0 {
		procs = v
	}
	procReady := make([]float64, procs) // MH only appends
	proc := make([]int32, v)
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	ready := make([]bool, v)
	readyCount := 0
	for n := range v {
		if unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]; unschedParents[n] == 0 {
			ready[n] = true
			readyCount++
		}
	}

	// Topology-aware data arrival time.
	dat := func(n, p int) float64 {
		var t float64
		for e := c.PredOff[n]; e < c.PredOff[n+1]; e++ {
			from := c.PredFrom[e]
			arr := finish[from]
			if fp := int(proc[from]); fp != p {
				arr += c.PredW[e] + s.Topology.Delay(fp, p)
			}
			if arr > t {
				t = arr
			}
		}
		return t
	}

	for range v {
		if readyCount == 0 {
			return nil, errors.New("mh: no ready node (cyclic graph?)")
		}
		bestNode, bestProc, bestStart := -1, -1, 0.0
		for n := range v {
			if !ready[n] {
				continue
			}
			for p := range procs {
				st := max(procReady[p], dat(n, p))
				better := bestNode < 0 || st < bestStart-1e-12
				if !better && st < bestStart+1e-12 {
					// ties: higher static level, then smaller ID
					if static[n] != static[bestNode] {
						better = static[n] > static[bestNode]
					} else {
						better = n < bestNode
					}
				}
				if better {
					bestNode, bestProc, bestStart = n, p, st
				}
			}
		}
		n := bestNode
		proc[n], start[n], finish[n] = int32(bestProc), bestStart, bestStart+c.NodeW[n]
		procReady[bestProc] = finish[n]
		ready[n] = false
		readyCount--
		for e := c.SuccOff[n]; e < c.SuccOff[n+1]; e++ {
			to := c.SuccTo[e]
			if unschedParents[to]--; unschedParents[to] == 0 {
				ready[to] = true
				readyCount++
			}
		}
	}
	return sched.FromArrays("MH", 0, proc, start, finish), nil
}
