package dag

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// decodeLayered round-trips a seeded layered graph through the JSON
// form, so the result carries the decoder's CSR.
func decodeLayered(t *testing.T, seed int64, v int) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, randomLayered(rand.New(rand.NewSource(seed)), v), ""); err != nil {
		t.Fatal(err)
	}
	g, _, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDecodedGraphKeepsItsCSR: a decoded graph is flattened and
// validated once. BuildCSR and ValidatedLevels hand back the decoder's
// CSR, which is the flatten of the graph itself, and Validate allocates
// nothing. A clone flattens its own.
func TestDecodedGraphKeepsItsCSR(t *testing.T) {
	g := decodeLayered(t, 3, 60)
	c := BuildCSR(g)
	if c == nil || c != g.csr {
		t.Fatal("BuildCSR of a decoded graph is not the decoder's CSR")
	}
	var flat CSR
	if err := flatten(&flat, g, true); err != nil {
		t.Fatal(err)
	}
	compareCSR(t, &flat, c)
	lc, _, err := g.ValidatedLevels()
	if err != nil || lc != c {
		t.Fatalf("ValidatedLevels: CSR %p, err %v; want the decoder's %p", lc, err, c)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate of a decoded graph allocates %.1f per call, want 0", n)
	}
	if cc := BuildCSR(g.Clone()); cc == c {
		t.Fatal("a clone shares the decoder's CSR")
	} else {
		compareCSR(t, c, cc)
	}
}

// TestMutatorsDropTheDecodedCSR: each of the four mutators clears the
// decoder's CSR, so Validate checks the graph again and BuildCSR shows
// the change.
func TestMutatorsDropTheDecodedCSR(t *testing.T) {
	t.Run("AddNode", func(t *testing.T) {
		g := decodeLayered(t, 4, 30)
		v := g.NumNodes()
		g.AddNode("extra", 1)
		if c := BuildCSR(g); c.NumNodes() != v+1 || g.csr != nil {
			t.Fatalf("after AddNode BuildCSR has %d nodes, want %d", c.NumNodes(), v+1)
		}
	})
	t.Run("AddEdge", func(t *testing.T) {
		g := decodeLayered(t, 5, 30)
		var from, to NodeID = None, None
		for n := range g.NumNodes() {
			if s := g.Succ(NodeID(n)); len(s) > 0 {
				from, to = NodeID(n), s[0].To
				break
			}
		}
		if err := g.AddEdge(to, from, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); !errors.Is(err, ErrCycle) {
			t.Fatalf("after an AddEdge that closes a cycle Validate = %v, want ErrCycle", err)
		}
	})
	t.Run("SetWeight", func(t *testing.T) {
		g := decodeLayered(t, 6, 30)
		g.SetWeight(2, -1)
		if err := g.Validate(); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("after SetWeight(2, -1) Validate = %v, want ErrBadWeight", err)
		}
	})
	t.Run("SetEdgeWeight", func(t *testing.T) {
		g := decodeLayered(t, 7, 30)
		e := g.Edges()[0]
		if !g.SetEdgeWeight(e.From, e.To, e.Weight+7) {
			t.Fatal("edge not found")
		}
		c := BuildCSR(g)
		s := c.SuccOff[e.From]
		for NodeID(c.SuccTo[s]) != e.To {
			s++
		}
		if c.SuccW[s] != e.Weight+7 {
			t.Fatalf("after SetEdgeWeight BuildCSR shows %v on %d -> %d, want %v", c.SuccW[s], e.From, e.To, e.Weight+7)
		}
	})
}
