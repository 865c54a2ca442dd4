package dag_test

import (
	"bytes"
	"errors"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
)

// TestDecodedGraphsDropDupSet: a graph out of the JSON decoder or
// CSR.ToGraph keeps none of AddEdge's build-only duplicate-edge sets,
// its content key is the key of the same graph built edge by edge, and
// AddEdge still rejects a repeated edge and accepts a new one on the
// high-fan-out node, whose set it rebuilds.
func TestDecodedGraphsDropDupSet(t *testing.T) {
	const fan = 40
	twin := dag.New(fan + 1)
	for i := 0; i <= fan; i++ {
		twin.AddNode("", float64(i+1))
	}
	for i := 1; i <= fan; i++ {
		twin.MustAddEdge(0, dag.NodeID(i), float64(i)/4)
	}
	twin.MustAddEdge(1, 2, 3)
	if !dag.HasDupSet(twin) {
		t.Fatalf("a node of out-degree %d built no duplicate-edge set", fan)
	}
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf, twin, ""); err != nil {
		t.Fatal(err)
	}
	decoded, _, err := dag.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*dag.Graph{"decoded": decoded, "ToGraph": dag.BuildCSR(twin).ToGraph()} {
		if dag.HasDupSet(g) {
			t.Errorf("%s: graph keeps its duplicate-edge sets", name)
		}
		if plan.GraphKey(g) != plan.GraphKey(twin) {
			t.Errorf("%s: GraphKey differs from the graph built edge by edge", name)
		}
		for i := 1; i <= fan; i++ {
			if err := g.AddEdge(0, dag.NodeID(i), 1); !errors.Is(err, dag.ErrDuplicateEdge) {
				t.Fatalf("%s: repeated edge 0 -> %d: err = %v, want ErrDuplicateEdge", name, i, err)
			}
		}
		n := g.AddNode("", 1)
		if err := g.AddEdge(0, n, 1); err != nil {
			t.Fatalf("%s: new edge 0 -> %d: %v", name, n, err)
		}
		if err := g.AddEdge(0, n, 1); !errors.Is(err, dag.ErrDuplicateEdge) {
			t.Fatalf("%s: repeated new edge 0 -> %d: err = %v, want ErrDuplicateEdge", name, n, err)
		}
	}
}
