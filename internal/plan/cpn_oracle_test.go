package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// cpnDominateOracle is the per-node construction CPNDominateList
// replaced, kept as its differential oracle: each node's parents copied
// into a slice of their own and sorted by step (5)'s key (larger
// b-level, then smaller t-level, then smaller ID), and the OBNs sorted
// separately by the same key.
func cpnDominateOracle(g *dag.Graph, l *dag.Levels, cls []dag.Class) []dag.NodeID {
	v := g.NumNodes()
	list := make([]dag.NodeID, 0, v)
	inList := make([]bool, v)
	parentOrder := make([][]dag.NodeID, v)
	for i := 0; i < v; i++ {
		preds := g.Pred(dag.NodeID(i))
		ps := make([]dag.NodeID, len(preds))
		for j, e := range preds {
			ps[j] = e.From
		}
		sort.Slice(ps, func(a, b int) bool {
			if l.BLevel[ps[a]] != l.BLevel[ps[b]] {
				return l.BLevel[ps[a]] > l.BLevel[ps[b]]
			}
			if l.TLevel[ps[a]] != l.TLevel[ps[b]] {
				return l.TLevel[ps[a]] < l.TLevel[ps[b]]
			}
			return ps[a] < ps[b]
		})
		parentOrder[i] = ps
	}
	var include func(n dag.NodeID)
	include = func(n dag.NodeID) {
		if inList[n] {
			return
		}
		for _, p := range parentOrder[n] {
			include(p)
		}
		list = append(list, n)
		inList[n] = true
	}
	cpns := dag.NodesOfClass(cls, dag.CPN)
	sort.Slice(cpns, func(a, b int) bool {
		if l.TLevel[cpns[a]] != l.TLevel[cpns[b]] {
			return l.TLevel[cpns[a]] < l.TLevel[cpns[b]]
		}
		return cpns[a] < cpns[b]
	})
	for _, n := range cpns {
		include(n)
	}
	obns := dag.NodesOfClass(cls, dag.OBN)
	sort.Slice(obns, func(a, b int) bool {
		if l.BLevel[obns[a]] != l.BLevel[obns[b]] {
			return l.BLevel[obns[a]] > l.BLevel[obns[b]]
		}
		if l.TLevel[obns[a]] != l.TLevel[obns[b]] {
			return l.TLevel[obns[a]] < l.TLevel[obns[b]]
		}
		return obns[a] < obns[b]
	})
	for _, n := range obns {
		include(n)
	}
	return list
}

// tieHeavyDAG draws a random DAG whose node and edge weights are the
// integers 1–3, so many nodes share b-levels and t-levels and the ID
// tie-breaks decide the order.
func tieHeavyDAG(rng *rand.Rand) *dag.Graph {
	v := 2 + rng.Intn(39)
	g := dag.New(v)
	for i := 0; i < v; i++ {
		g.AddNode("", float64(1+rng.Intn(3)))
	}
	p := 0.05 + 0.3*rng.Float64()
	for to := 1; to < v; to++ {
		for from := 0; from < to; from++ {
			if rng.Float64() < p {
				g.MustAddEdge(dag.NodeID(from), dag.NodeID(to), float64(1+rng.Intn(3)))
			}
		}
	}
	return g
}

// parentTies reports whether some node has two parents with equal
// b-levels, the case the sort's tie-breaks decide.
func parentTies(g *dag.Graph, l *dag.Levels) bool {
	for n := 0; n < g.NumNodes(); n++ {
		seen := map[float64]bool{}
		for _, e := range g.Pred(dag.NodeID(n)) {
			if seen[l.BLevel[e.From]] {
				return true
			}
			seen[l.BLevel[e.From]] = true
		}
	}
	return false
}

// TestCPNDominateListMatchesOracle pins the one-sort construction to
// the per-node one, element for element, on the plan corpus.
func TestCPNDominateListMatchesOracle(t *testing.T) {
	eachCorpusGraph(t, func(name string, g *dag.Graph) {
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cls := dag.Classify(g, l)
		got, want := CPNDominateList(dag.BuildCSR(g), l, cls), cpnDominateOracle(g, l, cls)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: CPN-Dominate list\n got %v\nwant %v", name, got, want)
		}
	})
}

// eachCorpusGraph calls check on the plan corpus: the paper's Figure-1
// graph, 600 tie-heavy random DAGs — failing unless at least a quarter
// of them give some node two parents with equal b-levels, the case the
// tie-breaks decide — and every paper-mix generator at three sizes and
// three CCRs.
func eachCorpusGraph(t *testing.T, check func(name string, g *dag.Graph)) {
	t.Helper()
	check("figure1", example.Graph())

	rng := rand.New(rand.NewSource(7))
	const draws = 600
	tied := 0
	for i := 0; i < draws; i++ {
		g := tieHeavyDAG(rng)
		check(fmt.Sprintf("ties/%d", i), g)
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		if parentTies(g, l) {
			tied++
		}
	}
	if tied < draws/4 {
		t.Fatalf("only %d of %d random DAGs have tied parents; the draw no longer tests tie-breaks", tied, draws)
	}

	db := timing.ParagonLike()
	apps := []struct {
		name  string
		build func(n int) (*dag.Graph, error)
		sizes []int
	}{
		{"gauss", func(n int) (*dag.Graph, error) { return workload.GaussElim(n, db) }, []int{4, 9, 16}},
		{"laplace", func(n int) (*dag.Graph, error) { return workload.Laplace(n, db) }, []int{3, 8, 14}},
		{"fft", func(n int) (*dag.Graph, error) { return workload.FFT(n, db) }, []int{4, 16, 64}},
		{"lu", func(n int) (*dag.Graph, error) { return workload.LU(n, db) }, []int{3, 8, 16}},
		{"cholesky", func(n int) (*dag.Graph, error) { return workload.Cholesky(n, db) }, []int{3, 8, 16}},
		{"random", func(n int) (*dag.Graph, error) { return workload.Random(workload.RandomOpts{V: n, Seed: int64(n)}) }, []int{50, 150, 300}},
	}
	for _, app := range apps {
		for _, n := range app.sizes {
			for _, ccr := range []float64{0.1, 1, 10} {
				g, err := app.build(n)
				if err != nil {
					t.Fatalf("%s/%d: %v", app.name, n, err)
				}
				check(fmt.Sprintf("%s/%d/ccr%v", app.name, n, ccr), timing.ScaleCCR(g, ccr))
			}
		}
	}
}
