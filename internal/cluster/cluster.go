// Package cluster provides the machinery shared by the clustering
// family of schedulers (DSC's relatives LC and EZ, and the mapping
// post-pass): evaluating a cluster assignment into a concrete schedule,
// and a union-find over clusters for edge-zeroing algorithms.
//
// A clustering maps every node to a cluster, a number in [0, v);
// co-located communication is free. Evaluate realizes the clustering as
// a schedule by replaying the nodes in descending b-level order
// (topologically safe and the standard cluster-ordering heuristic):
// each node starts at max(cluster ready time, data arrival time).
package cluster

import (
	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Evaluate turns a cluster assignment into a schedule, replaying the
// nodes in order (the b-level priority order of Levels.PriorityOrder)
// through Makespan. assign[n] lies in [0, v); distinct values are
// distinct processors. The returned schedule uses compact processor
// IDs in order of first use and reports no processor count.
func Evaluate(c *dag.CSR, order []dag.NodeID, assign []int) *sched.Schedule {
	v := c.NumNodes()
	start := make([]float64, v)
	finish := make([]float64, v)
	Makespan(c, order, assign, start, finish, make([]float64, v))
	renumber := make([]int32, v) // cluster -> processor + 1, 0 if unseen
	used := int32(0)
	proc := make([]int32, v)
	for _, n := range order {
		if renumber[assign[n]] == 0 {
			used++
			renumber[assign[n]] = used
		}
		proc[n] = renumber[assign[n]] - 1
	}
	return sched.FromArrays("", 0, proc, start, finish)
}

// Makespan evaluates the clustering and returns only the schedule
// length; the cheap inner loop for algorithms that evaluate many
// candidate clusterings (EZ tries one per edge). ready is the caller's
// scratch for the clusters' ready times, of length v; Makespan clears
// it first.
func Makespan(c *dag.CSR, order []dag.NodeID, assign []int, start, finish, ready []float64) float64 {
	clear(ready)
	var makespan float64
	for _, n := range order {
		k := assign[n]
		dat := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arr := finish[from]
			if assign[from] != k {
				arr += c.PredW[s]
			}
			if arr > dat {
				dat = arr
			}
		}
		st := dat
		if r := ready[k]; r > st {
			st = r
		}
		start[n] = st
		f := st + c.NodeW[n]
		finish[n] = f
		ready[k] = f
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
