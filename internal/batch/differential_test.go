package batch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/sched"
	"fastsched/internal/workload"
)

// diffWorkloads are the three graph shapes of the compiled-vs-legacy
// differential: a layered random DAG, a fork-join, and a communication-
// heavy chain. All stay at <= 8 nodes so the exhaustive "opt" scheduler
// remains tractable (matching the metamorphic suite's MaxNodes).
func diffWorkloads(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	layered := dag.New(8)
	var prev []dag.NodeID
	placed := 0
	for placed < 8 {
		width := 1 + rng.Intn(3)
		if placed+width > 8 {
			width = 8 - placed
		}
		layer := make([]dag.NodeID, 0, width)
		for i := 0; i < width; i++ {
			layer = append(layer, layered.AddNode("", 1+float64(rng.Intn(9))))
			placed++
		}
		for _, n := range layer {
			for _, p := range prev {
				if rng.Intn(2) == 0 {
					layered.MustAddEdge(p, n, float64(1+rng.Intn(10)))
				}
			}
		}
		if len(prev) > 0 {
			// Guarantee connectivity layer to layer.
			for _, n := range layer {
				if layered.InDegree(n) == 0 {
					layered.MustAddEdge(prev[0], n, float64(1+rng.Intn(10)))
				}
			}
		}
		prev = layer
	}
	return map[string]*dag.Graph{
		"layered":  layered,
		"forkjoin": workload.ForkJoin(4, 2, 3, 1, 5),
		"chain":    workload.Chain(7, 3, 4),
	}
}

// TestCompiledMatchesLegacy pins the tentpole's bit-identity claim:
// for every registry scheduler, every workload and every seed, the
// compiled-plan serving path produces exactly the schedule the legacy
// (per-request re-analysis) path produces — same placements, same
// floats, not just equal makespans.
func TestCompiledMatchesLegacy(t *testing.T) {
	compiled := New(Options{Workers: 2})
	defer compiled.Close()
	legacy := New(Options{Workers: 2, PlanCacheSize: -1})
	defer legacy.Close()

	graphs := diffWorkloads(t)
	ctx := context.Background()
	for _, alg := range casch.AlgorithmNames() {
		for wname, g := range graphs {
			for seed := int64(1); seed <= 5; seed++ {
				req := Request{
					ID:        fmt.Sprintf("%s/%s/%d", alg, wname, seed),
					Graph:     g,
					Procs:     2,
					Algorithm: alg,
					Seed:      seed,
					NoCache:   true, // force a real scheduling run each time
				}
				got := compiled.Do(ctx, req)
				want := legacy.Do(ctx, req)
				if (got.Err == nil) != (want.Err == nil) {
					t.Fatalf("%s: compiled err=%v, legacy err=%v", req.ID, got.Err, want.Err)
				}
				if got.Err != nil {
					continue
				}
				assertSameSchedule(t, req.ID, got.Schedule, want.Schedule)
			}
		}
	}
}

// assertSameSchedule requires bit-identical placements.
func assertSameSchedule(t *testing.T, id string, got, want *sched.Schedule) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q vs %q", id, got.Algorithm, want.Algorithm)
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: %d placements vs %d", id, got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < got.NumNodes(); i++ {
		n := dag.NodeID(i)
		gp, wp := got.Of(n), want.Of(n)
		if gp != wp {
			t.Fatalf("%s: node %d placed %+v by compiled path, %+v by legacy", id, n, gp, wp)
		}
	}
	if got.Length() != want.Length() {
		t.Fatalf("%s: makespan %v vs %v", id, got.Length(), want.Length())
	}
}
