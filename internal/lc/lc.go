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
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the LC algorithm.
type Scheduler struct{}

// New returns an LC scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "LC" }

// Schedule implements sched.Scheduler. LC is defined for an unbounded
// processor set and ignores procs, like DSC.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("lc: empty graph")
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
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
			bl[n] = g.Weight(n)
			next[n] = dag.None
			for _, e := range g.Succ(n) {
				if clustered[e.To] {
					continue
				}
				if cand := g.Weight(n) + e.Weight + bl[e.To]; cand > bl[n] {
					bl[n] = cand
					next[n] = e.To
				}
			}
		}
		for _, n := range order {
			if clustered[n] {
				continue
			}
			tl[n] = 0
			for _, e := range g.Pred(n) {
				if clustered[e.From] {
					continue
				}
				if cand := tl[e.From] + g.Weight(e.From) + e.Weight; cand > tl[n] {
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

	s := cluster.Evaluate(g, l.PriorityOrder(l.BLevel), assign)
	s.Algorithm = "LC"
	return s, nil
}
