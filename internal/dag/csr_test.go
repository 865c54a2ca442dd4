package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestBuildCSRShapeAndOrder(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(t, 30, seed)
		c := BuildCSR(g)
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("shape (%d,%d) != (%d,%d)", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if c.TotalWork() != g.TotalWork() || c.TotalComm() != g.TotalComm() {
			t.Fatalf("totals (%v,%v) != (%v,%v)", c.TotalWork(), c.TotalComm(), g.TotalWork(), g.TotalComm())
		}
		// Slot order must match the graph's stored order exactly.
		for i := 0; i < g.NumNodes(); i++ {
			n := NodeID(i)
			preds, succs := g.Pred(n), g.Succ(n)
			if int(c.PredOff[i+1]-c.PredOff[i]) != len(preds) || int(c.SuccOff[i+1]-c.SuccOff[i]) != len(succs) {
				t.Fatalf("node %d degree mismatch", i)
			}
			for j, e := range preds {
				s := c.PredOff[i] + int32(j)
				if NodeID(c.PredFrom[s]) != e.From || c.PredW[s] != e.Weight {
					t.Fatalf("node %d pred slot %d: (%d,%v) != (%d,%v)", i, j, c.PredFrom[s], c.PredW[s], e.From, e.Weight)
				}
			}
			for j, e := range succs {
				s := c.SuccOff[i] + int32(j)
				if NodeID(c.SuccTo[s]) != e.To || c.SuccW[s] != e.Weight {
					t.Fatalf("node %d succ slot %d: (%d,%v) != (%d,%v)", i, j, c.SuccTo[s], c.SuccW[s], e.To, e.Weight)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCSRTopoOrderMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(t, 30, seed)
		c := BuildCSR(g)
		want, err := topoOracle(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("order length %d != %d", len(got), len(want))
		}
		for i := range want {
			if NodeID(got[i]) != want[i] {
				t.Fatalf("topo order diverges at %d: %d != %d", i, got[i], want[i])
			}
		}
	}
}

// relabel returns g with node i renamed perm[i], its edges added in
// g's successor order.
func relabel(g *Graph, perm []int) *Graph {
	v := g.NumNodes()
	out := New(v)
	inv := make([]int, v)
	for i, p := range perm {
		inv[p] = i
	}
	for i := 0; i < v; i++ {
		out.AddNode("", g.Weight(NodeID(inv[i])))
	}
	for i := 0; i < v; i++ {
		for _, e := range g.Succ(NodeID(i)) {
			out.MustAddEdge(NodeID(perm[e.From]), NodeID(perm[e.To]), e.Weight)
		}
	}
	return out
}

// TestTopoOrderMatchesHeapWalk holds every entry point of the Kahn sort
// — TopoOrder, the levels kernel with and without an arena, and
// topoCheck — to the heap walk called directly and to topoOracle: the
// same order, or the same cycle error. The graphs are ascending (the
// ID-order path), ID-permuted and cyclic (the heap), and ascending but
// for one edge into a lower ID that is the last predecessor slot, so
// the ascending check must read every slot to send it to the heap, and
// ascending but for a self-loop.
func TestTopoOrderMatchesHeapWalk(t *testing.T) {
	type named struct {
		name      string
		g         *Graph
		ascending bool
	}
	var gs []named
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(t, 40, seed)
		gs = append(gs, named{fmt.Sprintf("ascending/%d", seed), g, true})
		perm := rand.New(rand.NewSource(seed)).Perm(g.NumNodes())
		gs = append(gs, named{fmt.Sprintf("permuted/%d", seed), relabel(g, perm), false})
		cyclic := relabel(g, perm)
		n := NodeID(g.NumNodes() - 1)
		for g.InDegree(n) == 0 {
			n--
		}
		e := g.Pred(n)[0]
		cyclic.MustAddEdge(NodeID(perm[e.To]), NodeID(perm[e.From]), 1)
		gs = append(gs, named{fmt.Sprintf("cyclic/%d", seed), cyclic, false})

		tail := g.Clone()
		k := tail.AddNode("", 1)
		tail.MustAddEdge(k, k-1, 1)
		gs = append(gs, named{fmt.Sprintf("last-slot-descends/%d", seed), tail, false})

		// A self-loop, smuggled past AddEdge, is a cycle the scan must
		// not take for an ascending edge.
		loop := g.Clone()
		loop.succ[n] = append(loop.succ[n], Edge{From: n, To: n, Weight: 1})
		loop.pred[n] = append(loop.pred[n], Edge{From: n, To: n, Weight: 1})
		loop.ne++
		gs = append(gs, named{fmt.Sprintf("self-loop/%d", seed), loop, false})
	}
	for _, tc := range gs {
		c := BuildCSR(tc.g)
		if c.ascending() != tc.ascending {
			t.Fatalf("%s: ascending() = %v", tc.name, !tc.ascending)
		}
		want, wantErr := c.topoHeap(nil, nil)
		oracle, oracleErr := topoOracle(tc.g)
		if fmt.Sprint(wantErr) != fmt.Sprint(oracleErr) || fmt.Sprint(want) != fmt.Sprint(oracle) {
			t.Fatalf("%s: heap walk (%v, %v), topoOracle (%v, %v)", tc.name, want, wantErr, oracle, oracleErr)
		}
		check := func(entry string, order []int32, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %s error %v, heap walk %v", tc.name, entry, err, wantErr)
			}
			if err == nil && fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("%s: %s order %v, heap walk %v", tc.name, entry, order, want)
			}
		}
		order, err := c.TopoOrder()
		check("TopoOrder", order, err)
		for _, a := range []*ScaleArena{nil, NewScaleArena()} {
			l, err := c.ComputeLevelsCompactArena(nil, a)
			if err != nil {
				check("ComputeLevelsCompactArena", nil, err)
			} else {
				check("ComputeLevelsCompactArena", l.Order, nil)
			}
			check("topoCheck", want, c.topoCheck(a))
		}
	}
}

func TestCSRTopoOrderCycle(t *testing.T) {
	c, err := StreamEdgeList(strings.NewReader("v 2\nn 1\nn 1\ne 0 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Inject a cycle directly into the arenas.
	c.PredOff = []int32{0, 1, 2}
	c.PredFrom = []int32{1, 0}
	c.PredW = []float64{1, 1}
	c.SuccOff = []int32{0, 1, 2}
	c.SuccTo = []int32{1, 0}
	c.SuccW = []float64{1, 1}
	if _, err := c.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if err := c.Validate(); err == nil {
		t.Fatal("cyclic CSR validated")
	}
}

func TestCSRValidateFailureModes(t *testing.T) {
	fresh := func() *CSR {
		c, err := StreamEdgeList(strings.NewReader("v 3\nn 1\nn 2\nn 3\ne 0 1 4\ne 0 2 5\ne 1 2 6\n"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := fresh().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(c *CSR)
	}{
		{"offset length", func(c *CSR) { c.PredOff = c.PredOff[:2] }},
		{"non-monotone offsets", func(c *CSR) { c.PredOff[1] = 3; c.PredOff[2] = 1 }},
		{"offset overshoot", func(c *CSR) { c.SuccOff[3] = 99 }},
		{"endpoint out of range", func(c *CSR) { c.PredFrom[0] = 77 }},
		{"negative endpoint", func(c *CSR) { c.SuccTo[0] = -1 }},
		{"nan node weight", func(c *CSR) { c.NodeW[1] = nan() }},
		{"negative edge weight", func(c *CSR) { c.PredW[0] = -1; c.SuccW[0] = -1 }},
		{"mirror weight mismatch", func(c *CSR) { c.PredW[0] = 9 }},
		{"mirror endpoint mismatch", func(c *CSR) { c.PredFrom[2] = 0; c.PredW[2] = 4 }},
		{"slot count mismatch", func(c *CSR) { c.PredFrom = c.PredFrom[:2]; c.PredW = c.PredW[:2] }},
	}
	for _, tc := range cases {
		c := fresh()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: corrupted CSR validated", tc.name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestCSRToGraphRoundTrip(t *testing.T) {
	for _, fix := range stgFixtures {
		g, err := readSTGOracle(strings.NewReader(fix), 3)
		if err != nil {
			t.Fatal(err)
		}
		back := BuildCSR(g).ToGraph()
		graphsEqual(t, back, g)
	}
}
