// Package dsc implements the DSC (Dominant Sequence Clustering)
// algorithm of Yang and Gerasoulis (IEEE TPDS, 1994).
//
// DSC clusters the nodes of the DAG onto an unbounded set of virtual
// processors. Nodes are examined in priority order (t-level + b-level,
// which tracks the dominant sequence — the critical path of the
// partially scheduled graph); each examined node either merges into a
// parent's cluster (zeroing the incoming edges from that cluster) when
// that strictly reduces its start time, or starts a cluster of its own.
// The b-levels are computed once up front and the t-levels maintained
// incrementally, giving O((e + v)·log v) time.
//
// This implementation follows the basic DSC examination loop without
// the DSRW (dominant-sequence reduction warranty) refinement for
// partially free nodes; the refinement only affects tie-heavy graphs
// and none of the paper's qualitative results depend on it.
package dsc

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/pq"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("dsc: empty graph")

// Scheduler implements sched.Scheduler with the DSC algorithm.
type Scheduler struct{}

// New returns a DSC scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "DSC" }

// Schedule implements sched.Scheduler: it compiles g, which validates
// it, and runs the plan entry. DSC assumes an unbounded number of
// processors and ignores procs entirely (the paper's experiments do the
// same: DSC "in general uses O(v) processors").
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

// ScheduleCompiled runs the DSC examination loop against a plan
// compiled from a graph; procs is ignored exactly as in Schedule. It
// reads l.BLevel and copies l.TLevel (the t-levels are updated
// incrementally), so a shared CompiledGraph's tables are never mutated.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	g, l := cg.Graph, cg.Levels
	v := g.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}

	cluster := make([]int, v) // -1 while unexamined
	for i := range cluster {
		cluster[i] = -1
	}
	var clusterReady []float64 // finish time of the last node per cluster
	start := make([]float64, v)
	tlevel := append([]float64(nil), l.TLevel...) // incrementally updated
	unexaminedParents := make([]int, v)
	s := sched.New(v)
	s.Algorithm = "DSC"

	// Free list: nodes whose parents are all examined, max-priority
	// first, smaller IDs first among ties. A node's priority is fixed
	// when it becomes free: its t-level is final then.
	fl := pq.Heap[freeNode]{Less: func(a, b freeNode) bool {
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		return a.n < b.n
	}}
	free := func(n dag.NodeID) { fl.Push(freeNode{n, tlevel[n] + l.BLevel[n]}) }
	for i := 0; i < v; i++ {
		unexaminedParents[i] = g.InDegree(dag.NodeID(i))
		if unexaminedParents[i] == 0 {
			free(dag.NodeID(i))
		}
	}

	for examined := 0; examined < v; examined++ {
		if fl.Len() == 0 {
			return nil, errors.New("dsc: no free node (cyclic graph?)")
		}
		n := fl.Pop().n

		// Staying alone costs the full-communication arrival time, which
		// is exactly the current t-level.
		bestCluster, bestEST := -1, tlevel[n]
		// Merging into a parent's cluster zeroes the edges from every
		// parent already in that cluster but must wait for the cluster to
		// drain and for messages from parents outside it.
		seen := map[int]bool{}
		for _, e := range g.Pred(n) {
			c := cluster[e.From]
			if seen[c] {
				continue
			}
			seen[c] = true
			est := clusterReady[c]
			for _, pe := range g.Pred(n) {
				arr := start[pe.From] + g.Weight(pe.From)
				if cluster[pe.From] != c {
					arr += pe.Weight
				}
				if arr > est {
					est = arr
				}
			}
			if est < bestEST-1e-12 {
				bestCluster, bestEST = c, est
			}
		}
		if bestCluster == -1 {
			bestCluster = len(clusterReady)
			clusterReady = append(clusterReady, 0)
		}
		cluster[n] = bestCluster
		start[n] = bestEST
		finish := bestEST + g.Weight(n)
		clusterReady[bestCluster] = finish
		s.Place(n, bestCluster, bestEST, finish)

		for _, e := range g.Succ(n) {
			// The child's t-level estimate assumes full communication from
			// every examined parent; merging decisions may lower it later,
			// which DSC accounts for at the child's own examination.
			if arr := finish + e.Weight; arr > tlevel[e.To] {
				tlevel[e.To] = arr
			}
			unexaminedParents[e.To]--
			if unexaminedParents[e.To] == 0 {
				free(e.To)
			}
		}
	}
	return s, nil
}

// freeNode is a free-list entry: a node and its priority.
type freeNode struct {
	n    dag.NodeID
	prio float64
}
