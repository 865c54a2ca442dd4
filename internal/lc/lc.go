// Package lc implements LC (Linear Clustering; Kim & Browne, 1988),
// the classic clustering scheduler that repeatedly peels off the
// current critical path of the unexamined graph into its own cluster.
//
// Each iteration finds the longest path (computation + communication)
// through the still-unclustered nodes, assigns that whole path to one
// new cluster (zeroing its internal edges), and removes it from
// consideration. The resulting clusters are realized as a schedule via
// cluster.Evaluate. LC assumes an unbounded processor set. Complexity
// is O(v·(v + e)).
package lc

import (
	"errors"

	"fastsched/internal/cluster"
	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("lc: empty graph")

// Scheduler implements sched.Scheduler with the LC algorithm.
type Scheduler struct{}

// New returns an LC scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "LC" }

// Schedule implements sched.Scheduler through the plan entry. LC is
// defined for an unbounded processor set and ignores procs, like DSC.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled clusters against a plan, reading only its CSR,
// b-levels and topological order.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, l := cg.CSR, cg.Levels
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	order := l.Order

	assign := make([]int, v)
	clustered := make([]bool, v)
	remaining := v
	tl := make([]float64, v)
	bl := make([]float64, v)
	next := make([]dag.NodeID, v) // successor along the longest path

	for clusterID := 0; remaining > 0; clusterID++ {
		// Longest path over unclustered nodes only: edges to/from
		// clustered nodes are ignored (they are already pinned elsewhere).
		for i := len(order) - 1; i >= 0; i-- {
			n := order[i]
			if clustered[n] {
				continue
			}
			bl[n] = c.NodeW[n]
			next[n] = dag.None
			for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
				to := c.SuccTo[s]
				if clustered[to] {
					continue
				}
				if cand := c.NodeW[n] + c.SuccW[s] + bl[to]; cand > bl[n] {
					bl[n] = cand
					next[n] = dag.NodeID(to)
				}
			}
		}
		for _, n := range order {
			if clustered[n] {
				continue
			}
			tl[n] = 0
			for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
				from := c.PredFrom[s]
				if clustered[from] {
					continue
				}
				if cand := tl[from] + c.NodeW[from] + c.PredW[s]; cand > tl[n] {
					tl[n] = cand
				}
			}
		}
		// The path head: unclustered node maximizing t+b with t == 0
		// (an entry of the residual graph).
		head := dag.None
		for _, n := range order {
			if clustered[n] || tl[n] != 0 {
				continue
			}
			if head == dag.None || bl[n] > bl[head] {
				head = n
			}
		}
		if head == dag.None {
			return nil, errors.New("lc: no path head found (cyclic graph?)")
		}
		for n := head; n != dag.None; n = next[n] {
			assign[n] = clusterID
			clustered[n] = true
			remaining--
		}
	}

	s := cluster.Evaluate(c, l.PriorityOrder(l.BLevel), assign)
	s.Algorithm = "LC"
	return s, nil
}
