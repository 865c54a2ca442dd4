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
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

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

// Schedule implements sched.Scheduler. procs <= 0 is treated as one
// processor per node.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("mh: empty graph")
	}
	if procs <= 0 {
		procs = v
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	m := listsched.NewMachine(procs)
	out := sched.New(v)
	out.Algorithm = "MH"

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

	// Topology-aware data arrival time.
	dat := func(n dag.NodeID, p int) float64 {
		var t float64
		for _, e := range g.Pred(n) {
			pl := out.Of(e.From)
			arr := pl.Finish
			if pl.Proc != p {
				arr += e.Weight + s.Topology.Delay(pl.Proc, p)
			}
			if arr > t {
				t = arr
			}
		}
		return t
	}

	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("mh: no ready node (cyclic graph?)")
		}
		bestNode := dag.None
		bestProc := -1
		bestStart := 0.0
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			for p := 0; p < procs; p++ {
				st := m.Proc(p).EarliestStartAppend(dat(n, p))
				better := bestNode == dag.None || st < bestStart-1e-12
				if !better && st < bestStart+1e-12 {
					// ties: higher static level, then smaller ID
					if l.Static[n] != l.Static[bestNode] {
						better = l.Static[n] > l.Static[bestNode]
					} else {
						better = n < bestNode
					}
				}
				if better {
					bestNode, bestProc, bestStart = n, p, st
				}
			}
		}
		w := g.Weight(bestNode)
		m.Proc(bestProc).Insert(bestNode, bestStart, w)
		out.Place(bestNode, bestProc, bestStart, bestStart+w)
		ready[bestNode] = false
		readyCount--
		for _, e := range g.Succ(bestNode) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				ready[e.To] = true
				readyCount++
			}
		}
	}
	return out, nil
}
