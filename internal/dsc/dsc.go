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
	"fastsched/internal/listsched"
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

// Schedule implements sched.Scheduler through the plan entry. DSC
// assumes an unbounded number of processors and ignores procs entirely
// (the paper's experiments do the same: DSC "in general uses O(v)
// processors").
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled runs the DSC examination loop against a plan,
// reading only its CSR and levels; procs is ignored exactly as in
// Schedule. It copies l.TLevel (the t-levels are updated
// incrementally), so a shared CompiledGraph's tables are never mutated.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, l := cg.CSR, cg.Levels
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}

	cluster := make([]int32, v) // a node's cluster, once examined
	var clusterReady []float64  // finish time of the last node per cluster
	start := make([]float64, v)
	finish := make([]float64, v)
	tlevel := append([]float64(nil), l.TLevel...) // incrementally updated
	unexaminedParents := make([]int32, v)
	seen := make([]int, v) // seen[k] == examined+1: cluster k is tried

	// Free list: nodes whose parents are all examined, max-priority
	// first, smaller IDs first among ties. A node's priority is fixed
	// when it becomes free: its t-level is final then.
	fl := pq.Heap[freeNode]{Less: func(a, b freeNode) bool {
		if a.prio != b.prio {
			return a.prio > b.prio
		}
		return a.n < b.n
	}}
	free := func(n int32) { fl.Push(freeNode{n, tlevel[n] + l.BLevel[n]}) }
	for n := range v {
		if unexaminedParents[n] = c.PredOff[n+1] - c.PredOff[n]; unexaminedParents[n] == 0 {
			free(int32(n))
		}
	}

	for examined := range v {
		if fl.Len() == 0 {
			return nil, errors.New("dsc: no free node (cyclic graph?)")
		}
		n := fl.Pop().n

		// Staying alone costs the full-communication arrival time, which
		// is exactly the current t-level.
		bestCluster, bestEST := int32(-1), tlevel[n]
		// Merging into a parent's cluster zeroes the edges from every
		// parent already in that cluster but must wait for the cluster to
		// drain and for messages from parents outside it.
		dat := listsched.DATOf(c, n, cluster, finish)
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			k := cluster[c.PredFrom[s]]
			if seen[k] == examined+1 {
				continue
			}
			seen[k] = examined + 1
			if est := max(clusterReady[k], dat.On(int(k))); est < bestEST-1e-12 {
				bestCluster, bestEST = k, est
			}
		}
		if bestCluster == -1 {
			bestCluster = int32(len(clusterReady))
			clusterReady = append(clusterReady, 0)
		}
		cluster[n] = bestCluster
		start[n], finish[n] = bestEST, bestEST+c.NodeW[n]
		clusterReady[bestCluster] = finish[n]

		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			// The child's t-level estimate assumes full communication from
			// every examined parent; merging decisions may lower it later,
			// which DSC accounts for at the child's own examination.
			to := c.SuccTo[s]
			if arr := finish[n] + c.SuccW[s]; arr > tlevel[to] {
				tlevel[to] = arr
			}
			if unexaminedParents[to]--; unexaminedParents[to] == 0 {
				free(to)
			}
		}
	}
	return sched.FromArrays("DSC", 0, cluster, start, finish), nil
}

// freeNode is a free-list entry: a node and its priority.
type freeNode struct {
	n    int32
	prio float64
}
