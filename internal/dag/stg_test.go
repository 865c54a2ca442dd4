package dag

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const stgSample = `
# diamond with dummy entry/exit, STG style
6
0 0 0
1 3 1 0
2 4 1 0
3 2 2 1 2
4 5 1 3
5 0 1 4
`

func TestReadSTG(t *testing.T) {
	g, err := ReadSTG(strings.NewReader(stgSample), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("shape %d/%d", g.NumNodes(), g.NumEdges())
	}
	if g.Weight(2) != 4 || g.Weight(0) != 0 {
		t.Fatalf("weights: %v %v", g.Weight(2), g.Weight(0))
	}
	if w, ok := g.EdgeWeight(1, 3); !ok || w != 2 {
		t.Fatalf("edge 1->3 = %v,%v", w, ok)
	}
	if g.InDegree(3) != 2 {
		t.Fatalf("indegree(3) = %d", g.InDegree(3))
	}
}

func TestReadSTGErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        ``,
		"bad count":    `zero`,
		"neg count":    `-2`,
		"short row":    "2\n0 1\n1 1 0",
		"bad id":       "1\nx 1 0",
		"id range":     "1\n5 1 0",
		"dup id":       "2\n0 1 0\n0 1 0",
		"bad cost":     "1\n0 abc 0",
		"pred count":   "2\n0 1 0\n1 1 2 0",
		"bad pred":     "2\n0 1 0\n1 1 1 x",
		"pred range":   "2\n0 1 0\n1 1 1 9",
		"missing rows": "3\n0 1 0",
		"self pred":    "1\n0 1 1 0",
	}
	for name, in := range cases {
		if _, err := ReadSTG(strings.NewReader(in), 1); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestSTGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		g := randomLayered(rng, 2+rng.Intn(40))
		var buf bytes.Buffer
		if err := WriteSTG(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadSTG(&buf, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: shape changed", trial)
		}
		for _, n := range g.Nodes() {
			if g2.Weight(n.ID) != n.Weight {
				t.Fatalf("trial %d: weight of %d changed", trial, n.ID)
			}
		}
		for _, e := range g.Edges() {
			if _, ok := g2.EdgeWeight(e.From, e.To); !ok {
				t.Fatalf("trial %d: edge %d->%d lost", trial, e.From, e.To)
			}
		}
	}
}

// TestReadSTGBadWeightsTyped checks that NaN, infinite and negative
// costs fail with ErrBadWeight: task costs, and a default
// communication cost even when the file has no edges to carry it.
func TestReadSTGBadWeightsTyped(t *testing.T) {
	for _, comm := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := ReadSTG(strings.NewReader("1\n0 1 0\n"), comm); !errors.Is(err, ErrBadWeight) {
			t.Errorf("default comm %v: err %v, want ErrBadWeight", comm, err)
		}
	}
	for _, cost := range []string{"NaN", "Inf", "-Inf", "-1"} {
		if _, err := ReadSTG(strings.NewReader("2\n0 1 0\n1 "+cost+" 1 0\n"), 1); !errors.Is(err, ErrBadWeight) {
			t.Errorf("cost %s: err %v, want ErrBadWeight", cost, err)
		}
	}
}
