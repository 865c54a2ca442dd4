package fastsched_test

import (
	"errors"
	"math"
	"testing"

	"fastsched"
	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/online"
	"fastsched/internal/plan"
)

// TestValidationContract runs every graph Validate rejects through the
// entry points that compile a graph themselves and through every
// registry algorithm. Each must fail with the sentinel Validate
// reports, so a caller can skip Validate and still classify the
// failure; online.Run also wraps it in ErrBadGraph.
func TestValidationContract(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// pair is a -> b with the given weights.
	pair := func(wa, wb, wab float64) *dag.Graph {
		g := dag.New(2)
		a := g.AddNode("a", wa)
		b := g.AddNode("b", wb)
		g.MustAddEdge(a, b, wab)
		return g
	}
	// chain is a -> b -> c with w(b) = -1: a negative weight inside the
	// graph, which list schedulers that skip validation place into an
	// overlapping slot.
	chain := func() *dag.Graph {
		g := pair(1, -1, 1)
		c := g.AddNode("c", 1)
		g.MustAddEdge(1, c, 1)
		return g
	}
	// cycle is a -> b -> a; the node weight lets a second fault ride
	// along.
	cycle := func(wa float64) *dag.Graph {
		g := pair(wa, 1, 1)
		g.MustAddEdge(1, 0, 1)
		return g
	}
	cases := []struct {
		name string
		g    *dag.Graph
		want error
	}{
		{"nan node weight", pair(nan, 1, 1), dag.ErrBadWeight},
		{"inf node weight", pair(1, inf, 1), dag.ErrBadWeight},
		{"negative node weight", pair(-1, 1, 1), dag.ErrBadWeight},
		{"nan edge weight", pair(1, 1, nan), dag.ErrBadWeight},
		{"inf edge weight", pair(1, 1, inf), dag.ErrBadWeight},
		{"negative edge weight", pair(1, 1, -1), dag.ErrBadWeight},
		{"negative weight mid-chain", chain(), dag.ErrBadWeight},
		{"cycle", cycle(1), dag.ErrCycle},
		{"cycle with nan weight", cycle(nan), dag.ErrCycle},
	}
	type entry struct {
		name string
		wrap error // a sentinel the entry point adds around Validate's
		run  func(g *dag.Graph) error
	}
	entries := []entry{
		{"plan.Compile", nil, func(g *dag.Graph) error { _, err := plan.Compile(g); return err }},
		{"CompileGraph", nil, func(g *dag.Graph) error { _, err := fastsched.CompileGraph(g); return err }},
		{"fast.Schedule", nil, func(g *dag.Graph) error { _, err := fast.New(fast.Options{}).Schedule(g, 2); return err }},
		{"online.Run", online.ErrBadGraph, func(g *dag.Graph) error {
			_, err := online.Run([]online.Job{{ID: "a", Graph: g}}, online.Options{Procs: 2})
			return err
		}},
	}
	for _, name := range casch.AlgorithmNames() {
		entries = append(entries, entry{"registry " + name, nil, func(g *dag.Graph) error {
			s, err := casch.NewScheduler(name, 1)
			if err != nil {
				return err
			}
			_, err = s.Schedule(g, 2)
			return err
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate: want %v, got %v", tc.want, err)
			}
			for _, e := range entries {
				err := e.run(tc.g)
				if !errors.Is(err, tc.want) || (e.wrap != nil && !errors.Is(err, e.wrap)) {
					t.Errorf("%s: want %v (wrapped in %v), got %v", e.name, tc.want, e.wrap, err)
				}
			}
		})
	}
}
