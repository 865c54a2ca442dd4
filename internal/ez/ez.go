// Package ez implements EZ (Edge Zeroing; Sarkar, 1989), the classic
// greedy clustering scheduler.
//
// EZ examines the edges in descending communication-cost order and
// merges the two endpoint clusters (zeroing every edge between them)
// whenever the merge does not increase the clustering's makespan; the
// final clusters are realized as a schedule. EZ assumes an unbounded
// processor set. With one makespan evaluation per edge the complexity
// is O(e·(v + e)) — polynomial but heavy, which is exactly why the FAST
// paper's generation of algorithms moved away from it.
package ez

import (
	"errors"
	"sort"

	"fastsched/internal/cluster"
	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Scheduler implements sched.Scheduler with the EZ algorithm.
type Scheduler struct{}

// New returns an EZ scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "EZ" }

// Schedule implements sched.Scheduler. EZ is defined for an unbounded
// processor set and ignores procs, like DSC and LC.
func (*Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, errors.New("ez: empty graph")
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	order := l.PriorityOrder(l.BLevel)

	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})

	uf := cluster.NewUnionFind(v)
	start := make([]float64, v)
	finish := make([]float64, v)
	ready := make(map[int]float64)

	assign := uf.Assignment()
	best := cluster.Makespan(g, order, assign, start, finish, ready)
	for _, e := range edges {
		ra, rb := uf.Find(int(e.From)), uf.Find(int(e.To))
		if ra == rb {
			continue // already zeroed by an earlier merge
		}
		// Tentatively merge by rewriting the assignment; commit to the
		// union-find only if the makespan does not increase.
		trial := uf.Assignment()
		for i := range trial {
			if trial[i] == rb {
				trial[i] = ra
			}
		}
		if m := cluster.Makespan(g, order, trial, start, finish, ready); m <= best+1e-12 {
			best = m
			uf.Union(ra, rb)
		}
	}

	s := cluster.Evaluate(g, order, uf.Assignment())
	s.Algorithm = "EZ"
	return s, nil
}
