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
	"cmp"
	"errors"
	"slices"

	"fastsched/internal/cluster"
	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("ez: empty graph")

// Scheduler implements sched.Scheduler with the EZ algorithm.
type Scheduler struct{}

// New returns an EZ scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "EZ" }

// Schedule implements sched.Scheduler through the plan entry. EZ is
// defined for an unbounded processor set and ignores procs, like DSC
// and LC.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled clusters against a plan, reading only its CSR and
// b-levels.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, l := cg.CSR, cg.Levels
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	order := l.PriorityOrder(l.BLevel)

	// Every edge, heaviest first; ties by endpoints, which no two edges
	// share.
	edges := make([]dag.Edge, 0, c.NumEdges())
	for n := range v {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			edges = append(edges, dag.Edge{From: dag.NodeID(n), To: dag.NodeID(c.SuccTo[s]), Weight: c.SuccW[s]})
		}
	}
	slices.SortFunc(edges, func(a, b dag.Edge) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})

	uf := cluster.NewUnionFind(v)
	start := make([]float64, v)
	finish := make([]float64, v)
	ready := make([]float64, v)
	trial := uf.Assignment()

	best := cluster.Makespan(c, order, trial, start, finish, ready)
	for _, e := range edges {
		ra, rb := uf.Find(int(e.From)), uf.Find(int(e.To))
		if ra == rb {
			continue // already zeroed by an earlier merge
		}
		// Tentatively merge in the trial assignment; commit to the
		// union-find only if the makespan does not increase.
		for i := range trial {
			if trial[i] = uf.Find(i); trial[i] == rb {
				trial[i] = ra
			}
		}
		if m := cluster.Makespan(c, order, trial, start, finish, ready); m <= best+1e-12 {
			best = m
			uf.Union(ra, rb)
		}
	}

	s := cluster.Evaluate(c, order, uf.Assignment())
	s.Algorithm = "EZ"
	return s, nil
}
