// Package mcp implements MCP (Modified Critical Path; Wu & Gajski,
// 1990), the insertion-based list scheduler from the same paper as MD
// and a standard member of the comparison suites the FAST paper builds
// on.
//
// MCP sorts the nodes by ascending ALAP time — ties broken by comparing
// the sorted ALAP lists of the nodes' children lexicographically — and
// schedules them in that order, each to the processor that allows the
// earliest start time with insertion into idle slots. Time complexity
// is O(v^2 log v + p·v^2).
package mcp

import (
	"errors"
	"sort"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/pq"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("mcp: empty graph")

// Scheduler implements sched.Scheduler with the MCP algorithm.
type Scheduler struct{}

// New returns an MCP scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "MCP" }

// Schedule implements sched.Scheduler through the plan entry. procs <= 0
// is treated as one processor per node.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR, ALAP
// table and topological order.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, l := cg.CSR, cg.Levels
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	if procs <= 0 {
		procs = v
	}

	// Per-node ALAP tie-break keys: the node's children's ALAP times in
	// ascending order.
	childALAPs := make([][]float64, v)
	for n := range v {
		ks := make([]float64, 0, c.SuccOff[n+1]-c.SuccOff[n])
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			ks = append(ks, l.ALAP[c.SuccTo[s]])
		}
		sort.Float64s(ks)
		childALAPs[n] = ks
	}
	// A parent's ALAP never exceeds its child's, so ascending ALAP is a
	// topological order except for ties; the final tie-break on
	// topological position keeps parents first even with zero weights.
	topoPos := make([]int, v)
	for i, n := range l.Order {
		topoPos[n] = i
	}
	order := make([]dag.NodeID, v)
	for i := range order {
		order[i] = dag.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if l.ALAP[na] != l.ALAP[nb] {
			return l.ALAP[na] < l.ALAP[nb]
		}
		if k := compareLex(childALAPs[na], childALAPs[nb]); k != 0 {
			return k < 0
		}
		return topoPos[na] < topoPos[nb]
	})

	// Drain the sorted order through a ready filter (Kahn's algorithm
	// with the MCP position as priority) so the processed sequence is
	// always topological, even on degenerate ties.
	pos := make([]int, v)
	for i, n := range order {
		pos[n] = i
	}
	unschedParents := make([]int32, v)
	readyByPos := posHeap(pos)
	for n := range v {
		if unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]; unschedParents[n] == 0 {
			readyByPos.Push(dag.NodeID(n))
		}
	}
	sequence := make([]dag.NodeID, 0, v)
	for readyByPos.Len() > 0 {
		n := readyByPos.Pop()
		sequence = append(sequence, n)
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			if unschedParents[to]--; unschedParents[to] == 0 {
				readyByPos.Push(dag.NodeID(to))
			}
		}
	}
	if len(sequence) != v {
		return nil, errors.New("mcp: graph contains a cycle")
	}

	m := listsched.NewMachine(procs)
	proc := make([]int32, v)
	start := make([]float64, v)
	finish := make([]float64, v)
	for _, n := range sequence {
		w := c.NodeW[n]
		dat := listsched.DATOf(c, n, proc, finish)
		p, st := -1, 0.0
		for q := 0; q < procs; q++ {
			if s := m.Proc(q).EarliestStart(dat.On(q), w); p == -1 || s < st {
				p, st = q, s
			}
		}
		m.Proc(p).Insert(n, st, w)
		proc[n], start[n], finish[n] = int32(p), st, st+w
	}
	return sched.FromArrays("MCP", 0, proc, start, finish), nil
}

// posHeap is a min-heap of node IDs keyed by their MCP list position.
func posHeap(pos []int) *pq.Heap[dag.NodeID] {
	return &pq.Heap[dag.NodeID]{Less: func(a, b dag.NodeID) bool { return pos[a] < pos[b] }}
}

// compareLex compares two ascending float lists lexicographically, with
// a shorter prefix ordering before its extensions (as in the original
// MCP formulation).
func compareLex(a, b []float64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
