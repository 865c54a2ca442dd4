package dag

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g, "diamond"); err != nil {
		t.Fatal(err)
	}
	g2, name, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "diamond" {
		t.Fatalf("name = %q", name)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, n := range g.Nodes() {
		n2 := g2.Node(n.ID)
		if n2.Label != n.Label || n2.Weight != n.Weight {
			t.Fatalf("node %d mismatch: %+v vs %+v", n.ID, n2, n)
		}
	}
	for _, e := range g.Edges() {
		w, ok := g2.EdgeWeight(e.From, e.To)
		if !ok || w != e.Weight {
			t.Fatalf("edge %d->%d mismatch", e.From, e.To)
		}
	}
}

func TestJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomLayered(rng, 2+rng.Intn(40))
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g, ""); err != nil {
			t.Fatal(err)
		}
		g2, _, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      `{{{`,
		"dup node":     `{"nodes":[{"id":0,"weight":1},{"id":0,"weight":1}],"edges":[]}`,
		"id range":     `{"nodes":[{"id":5,"weight":1}],"edges":[]}`,
		"edge range":   `{"nodes":[{"id":0,"weight":1}],"edges":[{"from":0,"to":9,"weight":1}]}`,
		"self loop":    `{"nodes":[{"id":0,"weight":1}],"edges":[{"from":0,"to":0,"weight":1}]}`,
		"dup edge":     `{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":1,"weight":1},{"from":0,"to":1,"weight":2}]}`,
		"negative wgt": `{"nodes":[{"id":0,"weight":-3}],"edges":[]}`,
	}
	for name, in := range cases {
		if _, _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := diamond(t)
	dot := DOT(g, "diamond")
	for _, want := range []string{"digraph \"diamond\"", "0 -> 1", "2 -> 3", "label=\"a\\n1\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// unnamed graphs get a default name and unlabeled nodes a default label
	g2 := New(1)
	g2.AddNode("", 2)
	dot2 := DOT(g2, "")
	if !strings.Contains(dot2, "digraph \"G\"") || !strings.Contains(dot2, "n0") {
		t.Errorf("default naming broken:\n%s", dot2)
	}
}

// TestReadJSONExactCapacity checks that a decoded graph's adjacency
// lists are cut to their exact length from shared backing arrays, and
// that growing one later reallocates it rather than overwriting the
// neighbouring list.
func TestReadJSONExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, randomLayered(rng, 3+rng.Intn(40)), ""); err != nil {
			t.Fatal(err)
		}
		g, _, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.succ {
			if cap(g.succ[i]) != len(g.succ[i]) || cap(g.pred[i]) != len(g.pred[i]) {
				t.Fatalf("trial %d node %d: succ len/cap %d/%d, pred len/cap %d/%d", trial, i,
					len(g.succ[i]), cap(g.succ[i]), len(g.pred[i]), cap(g.pred[i]))
			}
		}
		before := g.Clone()
		// A new edge from the first node to the last appends to both
		// ends' lists; every other list must be untouched.
		from, to := NodeID(0), NodeID(g.NumNodes()-1)
		if _, dup := g.EdgeWeight(from, to); dup {
			continue
		}
		if err := g.AddEdge(from, to, 1); err != nil {
			t.Fatal(err)
		}
		for i := range g.succ {
			n := NodeID(i)
			if n != from && !sameEdgeList(g.succ[i], before.succ[i]) || n != to && !sameEdgeList(g.pred[i], before.pred[i]) {
				t.Fatalf("trial %d: growing %d -> %d changed node %d's lists", trial, from, to, i)
			}
		}
	}
}

func sameEdgeList(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWriteJSONSlotOrder holds WriteJSONSlotOrder to its contract. A
// graph built edge by edge in random order reads back slot for slot,
// and so does the graph decoded from that file. A graph whose lists all
// ascend gets WriteJSON's bytes. A CSR whose slot orders no edge order
// gives — 0's children 2 then 3, 3's parents 0 then 1, 1's children 3
// then 2, 2's parents 1 then 0 — gets WriteJSON's bytes too.
func TestWriteJSONSlotOrder(t *testing.T) {
	write := func(g *Graph, w func(io.Writer, *Graph, string) error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := w(&buf, g, "g"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(b []byte) *Graph {
		t.Helper()
		g, _, err := ReadJSON(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 40, seed)
		back := read(write(g, WriteJSONSlotOrder))
		graphsEqual(t, back, g)
		graphsEqual(t, read(write(back, WriteJSONSlotOrder)), g)

		sorted := read(write(g, WriteJSON))
		if got, want := write(sorted, WriteJSONSlotOrder), write(sorted, WriteJSON); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: ascending lists written\n%s\nwant WriteJSON's\n%s", seed, got, want)
		}
	}
	c := &CSR{
		PredOff:  []int32{0, 0, 0, 2, 4},
		PredFrom: []int32{1, 0, 0, 1},
		PredW:    []float64{1, 1, 1, 1},
		SuccOff:  []int32{0, 2, 4, 4, 4},
		SuccTo:   []int32{2, 3, 3, 2},
		SuccW:    []float64{1, 1, 1, 1},
		NodeW:    []float64{1, 1, 1, 1},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	g := c.ToGraph()
	if _, ok := g.slotOrder(); ok {
		t.Fatal("slotOrder found an order for contradicting slot orders")
	}
	if got, want := write(g, WriteJSONSlotOrder), write(g, WriteJSON); !bytes.Equal(got, want) {
		t.Fatalf("fallback wrote\n%s\nwant WriteJSON's\n%s", got, want)
	}
}
