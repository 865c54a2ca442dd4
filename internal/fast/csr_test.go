package fast

import (
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/schedtest"
)

// The CSR layout must mirror g.Pred / g.Succ slot for slot: same
// adjacency order, same weights, same node costs — anything else would
// change the floating-point reduction order of datOn.
func TestCSRMatchesGraph(t *testing.T) {
	graphs := []*dag.Graph{example.Graph()}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		graphs = append(graphs, schedtest.RandomLayered(rng, 2+rng.Intn(80)))
	}
	for gi, g := range graphs {
		c := dag.BuildCSR(g)
		v := g.NumNodes()
		if len(c.PredOff) != v+1 || int(c.PredOff[v]) != g.NumEdges() {
			t.Fatalf("graph %d: pred offsets len %d / end %d, want %d / %d", gi, len(c.PredOff), c.PredOff[v], v+1, g.NumEdges())
		}
		if len(c.SuccOff) != v+1 || int(c.SuccOff[v]) != g.NumEdges() {
			t.Fatalf("graph %d: succ offsets len %d / end %d, want %d / %d", gi, len(c.SuccOff), c.SuccOff[v], v+1, g.NumEdges())
		}
		for n := 0; n < v; n++ {
			preds := g.Pred(dag.NodeID(n))
			lo, hi := c.PredOff[n], c.PredOff[n+1]
			if int(hi-lo) != len(preds) {
				t.Fatalf("graph %d node %d: %d pred CSR slots, want %d", gi, n, hi-lo, len(preds))
			}
			for j, e := range preds {
				if c.PredFrom[lo+int32(j)] != int32(e.From) || c.PredW[lo+int32(j)] != e.Weight {
					t.Fatalf("graph %d node %d pred slot %d: (%d, %v), want (%d, %v)",
						gi, n, j, c.PredFrom[lo+int32(j)], c.PredW[lo+int32(j)], e.From, e.Weight)
				}
			}
			succs := g.Succ(dag.NodeID(n))
			lo, hi = c.SuccOff[n], c.SuccOff[n+1]
			if int(hi-lo) != len(succs) {
				t.Fatalf("graph %d node %d: %d succ CSR slots, want %d", gi, n, hi-lo, len(succs))
			}
			for j, e := range succs {
				if c.SuccTo[lo+int32(j)] != int32(e.To) || c.SuccW[lo+int32(j)] != e.Weight {
					t.Fatalf("graph %d node %d succ slot %d: (%d, %v), want (%d, %v)",
						gi, n, j, c.SuccTo[lo+int32(j)], c.SuccW[lo+int32(j)], e.To, e.Weight)
				}
			}
			if c.NodeW[n] != g.Weight(dag.NodeID(n)) {
				t.Fatalf("graph %d node %d: weight %v, want %v", gi, n, c.NodeW[n], g.Weight(dag.NodeID(n)))
			}
		}
	}
}
