package cluster

import (
	"errors"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// TestConformance runs the shared invariant suite against Evaluate
// under the two degenerate clusterings: every node alone (maximal
// communication) and everything in one cluster (serial execution).
// Both are unbounded — Evaluate opens a processor per cluster.
func TestConformance(t *testing.T) {
	eval := func(assign func(v int) []int) schedtest.ScheduleFunc {
		return func(g *dag.Graph, procs int) (*dag.Graph, *sched.Schedule, error) {
			if g.NumNodes() == 0 {
				return nil, nil, errors.New("cluster: empty graph")
			}
			l, err := dag.ComputeLevels(g)
			if err != nil {
				return nil, nil, err
			}
			return g, Evaluate(dag.BuildCSR(g), l.PriorityOrder(l.BLevel), assign(g.NumNodes())), nil
		}
	}

	t.Run("UnitClusters", func(t *testing.T) {
		schedtest.ConformanceFunc(t, "cluster/unit", false, eval(func(v int) []int {
			a := make([]int, v)
			for i := range a {
				a[i] = i
			}
			return a
		}))
	})

	t.Run("SingleCluster", func(t *testing.T) {
		schedtest.ConformanceFunc(t, "cluster/single", false, eval(func(v int) []int {
			return make([]int, v)
		}))
	})
}
