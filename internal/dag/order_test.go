package dag_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
)

// sortedByKey is the order PriorityOrder replaced: order sorted by
// decreasing key with sort.SliceStable, ties broken by position in
// order.
func sortedByKey(key []float64, order []int32) []int32 {
	pos := make([]int, len(key))
	for i, n := range order {
		pos[n] = i
	}
	out := slices.Clone(order)
	sort.SliceStable(out, func(i, j int) bool {
		if key[out[i]] != key[out[j]] {
			return key[out[i]] > key[out[j]]
		}
		return pos[out[i]] < pos[out[j]]
	})
	return out
}

// TestPriorityOrderMatchesSortReference pins the one level order
// against the sort.SliceStable reference, with and without an arena:
// on the oracle corpus and random layered graphs by b-level and static
// level, and on random orders with keys drawn from three values, so
// almost every comparison is a tie.
func TestPriorityOrderMatchesSortReference(t *testing.T) {
	a := dag.NewScaleArena()
	check := func(name string, key []float64, order []int32) {
		t.Helper()
		want := sortedByKey(key, order)
		if got := dag.PriorityOrder(key, order, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, want %v", name, got, want)
		}
		a.Reset()
		if got := dag.PriorityOrder(key, order, a); !slices.Equal(got, want) {
			t.Fatalf("%s: arena order %v, want %v", name, got, want)
		}
	}
	var graphs []*dag.Graph
	for _, in := range schedtest.OracleCorpus() {
		graphs = append(graphs, in.Graph)
	}
	rng := rand.New(rand.NewSource(5))
	for range 20 {
		graphs = append(graphs, schedtest.RandomLayered(rng, 1+rng.Intn(80)))
	}
	for i, g := range graphs {
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		check("b-level", l.BLevel, l.CompactLevels.Order)
		check("static level", l.Static, l.CompactLevels.Order)
		want := sortedByKey(l.Static, l.CompactLevels.Order)
		for j, n := range l.PriorityOrder(l.Static) {
			if int32(n) != want[j] {
				t.Fatalf("graph %d: widened order differs at %d", i, j)
			}
		}
	}
	for range 200 {
		v := rng.Intn(70)
		key := make([]float64, v)
		for i := range key {
			key[i] = float64(rng.Intn(3))
		}
		order := make([]int32, v)
		for i, p := range rng.Perm(v) {
			order[i] = int32(p)
		}
		check("random keys", key, order)
	}
}
