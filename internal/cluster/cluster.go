// Package cluster provides the machinery shared by the clustering
// family of schedulers (DSC's relatives LC and EZ): evaluating a
// cluster assignment into a concrete schedule, and a union-find over
// clusters for edge-zeroing algorithms.
//
// A clustering maps every node to a cluster; co-located communication
// is free. Evaluate realizes the clustering as a schedule by replaying
// the nodes in descending b-level order (topologically safe and the
// standard cluster-ordering heuristic): each node starts at
// max(cluster ready time, data arrival time).
package cluster

import (
	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Evaluate turns a cluster assignment into a schedule, replaying the
// nodes in order (the b-level priority order of Levels.PriorityOrder)
// through Makespan. assign[n] may be any int; distinct values are
// distinct processors. The returned schedule uses compact processor IDs
// in order of first use.
func Evaluate(g *dag.Graph, order []dag.NodeID, assign []int) *sched.Schedule {
	start := make([]float64, g.NumNodes())
	finish := make([]float64, g.NumNodes())
	Makespan(g, order, assign, start, finish, map[int]float64{})
	s := sched.New(g.NumNodes())
	renumber := make(map[int]int)
	for _, n := range order {
		id, ok := renumber[assign[n]]
		if !ok {
			id = len(renumber)
			renumber[assign[n]] = id
		}
		s.Place(n, id, start[n], finish[n])
	}
	return s
}

// Makespan evaluates the clustering and returns only the schedule
// length; the cheap inner loop for algorithms that evaluate many
// candidate clusterings (EZ tries one per edge).
func Makespan(g *dag.Graph, order []dag.NodeID, assign []int, start, finish []float64, ready map[int]float64) float64 {
	for k := range ready {
		delete(ready, k)
	}
	var makespan float64
	for _, n := range order {
		c := assign[n]
		dat := 0.0
		for _, e := range g.Pred(n) {
			arr := finish[e.From]
			if assign[e.From] != c {
				arr += e.Weight
			}
			if arr > dat {
				dat = arr
			}
		}
		st := dat
		if r := ready[c]; r > st {
			st = r
		}
		start[n] = st
		f := st + g.Weight(n)
		finish[n] = f
		ready[c] = f
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// UnionFind is a standard disjoint-set structure over node IDs, used by
// edge-zeroing algorithms to merge clusters.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the representative of x's set with path compression.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were
// previously distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Assignment snapshots the current sets as a cluster assignment.
func (u *UnionFind) Assignment() []int {
	out := make([]int, len(u.parent))
	for i := range out {
		out[i] = u.Find(i)
	}
	return out
}
