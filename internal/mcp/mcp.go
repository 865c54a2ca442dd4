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
	"fastsched/internal/pq"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the MCP algorithm.
type Scheduler struct{}

// New returns an MCP scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "MCP" }

// Schedule implements sched.Scheduler. procs <= 0 is treated as one
// processor per node.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("mcp: empty graph")
	}
	if procs <= 0 {
		procs = v
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}

	// Per-node ALAP tie-break keys: the node's children's ALAP times in
	// ascending order.
	childALAPs := make([][]float64, v)
	for i := 0; i < v; i++ {
		n := dag.NodeID(i)
		ks := make([]float64, 0, g.OutDegree(n))
		for _, e := range g.Succ(n) {
			ks = append(ks, l.ALAP[e.To])
		}
		sort.Float64s(ks)
		childALAPs[i] = ks
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
		if c := compareLex(childALAPs[na], childALAPs[nb]); c != 0 {
			return c < 0
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
	unschedParents := make([]int, v)
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
	}
	readyByPos := posHeap(pos)
	for i := 0; i < v; i++ {
		if unschedParents[i] == 0 {
			readyByPos.Push(dag.NodeID(i))
		}
	}
	sequence := make([]dag.NodeID, 0, v)
	for readyByPos.Len() > 0 {
		n := readyByPos.Pop()
		sequence = append(sequence, n)
		for _, e := range g.Succ(n) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				readyByPos.Push(e.To)
			}
		}
	}
	if len(sequence) != v {
		return nil, errors.New("mcp: graph contains a cycle")
	}

	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "MCP"
	for _, n := range sequence {
		w := g.Weight(n)
		cache := listsched.NewDATCache(g, s, n)
		proc, start := -1, 0.0
		for p := 0; p < procs; p++ {
			st := m.Proc(p).EarliestStart(cache.DAT(p), w)
			if proc == -1 || st < start {
				proc, start = p, st
			}
		}
		m.Proc(proc).Insert(n, start, w)
		s.Place(n, proc, start, start+w)
	}
	return s, nil
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
