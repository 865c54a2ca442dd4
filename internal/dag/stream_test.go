package dag

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// stgFixtures are STG inputs the map-based oracle accepts, spanning the
// orderings that exercise the counting scatters: rows out of id order,
// predecessors listed out of order, diamonds, multi-level fan-in.
var stgFixtures = []string{
	"3\n0 1 0\n1 2 1 0\n2 3 1 1\n",
	"1\n0 0 0\n",
	"# comment\n2\n0 1 0\n1 1 1 0\n",
	"4\n0 1 0\n1 2 1 0\n2 3 1 0\n3 4 2 1 2\n",              // diamond
	"4\n3 4 2 2 1\n2 3 1 0\n1 2 1 0\n0 1 0\n",              // rows and preds reversed
	"5\n0 2 0\n1 3 1 0\n2 1 1 0\n3 2 2 2 1\n4 1 3 3 0 1\n", // mixed fan-in order
	"6\n0 1 0\n1 1 0\n2 1 2 1 0\n3 1 1 2\n4 1 2 0 2\n5 1 3 4 3 2\n",
}

// graphsEqual compares two graphs slot for slot: labels, weights, and
// the exact order of every adjacency list — the strictest equality the
// schedulers' determinism contract depends on.
func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape (%d,%d) != (%d,%d)", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := 0; i < want.NumNodes(); i++ {
		n := NodeID(i)
		if got.Label(n) != want.Label(n) || got.Weight(n) != want.Weight(n) {
			t.Fatalf("node %d: (%q,%v) != (%q,%v)", i, got.Label(n), got.Weight(n), want.Label(n), want.Weight(n))
		}
		gp, wp := got.Pred(n), want.Pred(n)
		if len(gp) != len(wp) {
			t.Fatalf("node %d: %d preds != %d", i, len(gp), len(wp))
		}
		for j := range wp {
			if gp[j] != wp[j] {
				t.Fatalf("node %d pred slot %d: %+v != %+v", i, j, gp[j], wp[j])
			}
		}
		gs, ws := got.Succ(n), want.Succ(n)
		if len(gs) != len(ws) {
			t.Fatalf("node %d: %d succs != %d", i, len(gs), len(ws))
		}
		for j := range ws {
			if gs[j] != ws[j] {
				t.Fatalf("node %d succ slot %d: %+v != %+v", i, j, gs[j], ws[j])
			}
		}
	}
}

func TestStreamSTGBitIdentical(t *testing.T) {
	for _, fix := range stgFixtures {
		want, err := readSTGOracle(strings.NewReader(fix), 2.5)
		if err != nil {
			t.Fatalf("readSTGOracle(%q): %v", fix, err)
		}
		c, err := StreamSTG(strings.NewReader(fix), 2.5)
		if err != nil {
			t.Fatalf("StreamSTG(%q): %v", fix, err)
		}
		compareCSR(t, BuildCSR(want), c)
		graphsEqual(t, c.ToGraph(), want)
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", fix, err)
		}
	}
}

func TestStreamSTGErrors(t *testing.T) {
	cases := []string{
		"",                      // no header
		"0\n",                   // bad count
		"x\n",                   // non-numeric count
		"2\n0 1 0\n",            // short file
		"2\n0 1 0\n5 1 0\n",     // id out of range
		"2\n0 1 0\n1 -1 0\n",    // negative cost
		"2\n0 1 0\n1 NaN 0\n",   // NaN cost
		"2\n0 1 0\n1 Inf 0\n",   // Inf cost
		"2\n0 1 0\n1 1 2 0\n",   // row/np mismatch
		"2\n0 1 0\n1 1 1 7\n",   // pred out of range
		"2\n0 1 0\n1 1 1 1\n",   // self loop
		"2\n0 1 0\n0 1 0\n",     // duplicate id
		"2\n0 1 0\n1 1 2 0 0\n", // duplicate edge
		"000002000000 v1\n",     // the FuzzReadSTG OOM case: huge header, no rows
	}
	for _, fix := range cases {
		if _, err := StreamSTG(strings.NewReader(fix), 1); err == nil {
			t.Errorf("StreamSTG(%q) accepted", fix)
		}
		if _, err := ReadSTG(strings.NewReader(fix), 1); err == nil {
			t.Errorf("ReadSTG(%q) accepted", fix)
		}
	}
	if _, err := StreamSTG(strings.NewReader("1\n0 1 0\n"), -1); err == nil {
		t.Error("negative default comm accepted")
	}
}

// randomGraph builds a random DAG with edges inserted in random order —
// the adversarial case for the slot-order-preserving round trip.
func randomGraph(t testing.TB, v int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(v)
	for i := 0; i < v; i++ {
		g.AddNode("", float64(rng.Intn(10)+1))
	}
	type pair struct{ from, to NodeID }
	var pairs []pair
	for to := 1; to < v; to++ {
		deg := rng.Intn(4)
		for j := 0; j < deg; j++ {
			pairs = append(pairs, pair{NodeID(rng.Intn(to)), NodeID(to)})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		// Ignore duplicate-edge rejections; the survivors land in random
		// insertion order.
		_ = g.AddEdge(p.from, p.to, float64(rng.Intn(10)+1))
	}
	return g
}

func TestStreamEdgeListRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(t, 40, seed)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		c, err := StreamEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		// The reader canonicalizes successor order to child-major, so
		// the lossless guarantee is on the predecessor arenas (file
		// order within each child = g's stored pred order) plus node
		// weights — exactly what ToGraph replays.
		want := BuildCSR(g)
		if c.NumNodes() != want.NumNodes() || c.NumEdges() != want.NumEdges() {
			t.Fatalf("shape (%d,%d) != (%d,%d)", c.NumNodes(), c.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for i := range want.PredOff {
			if c.PredOff[i] != want.PredOff[i] {
				t.Fatalf("pred offsets diverge at node %d", i)
			}
		}
		for i := range want.PredFrom {
			if c.PredFrom[i] != want.PredFrom[i] || c.PredW[i] != want.PredW[i] {
				t.Fatalf("pred slot %d: (%d,%v) != (%d,%v)", i, c.PredFrom[i], c.PredW[i], want.PredFrom[i], want.PredW[i])
			}
		}
		for n := range want.NodeW {
			if c.NodeW[n] != want.NodeW[n] {
				t.Fatalf("node %d weight %v != %v", n, c.NodeW[n], want.NodeW[n])
			}
		}
		// A canonicalized graph round-trips bit-identically: the second
		// pass is a fixed point of write→read.
		canon := c.ToGraph()
		var buf2 bytes.Buffer
		if err := WriteEdgeList(&buf2, canon); err != nil {
			t.Fatal(err)
		}
		c2, err := StreamEdgeList(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		compareCSR(t, BuildCSR(canon), c2)
		graphsEqual(t, c2.ToGraph(), canon)
	}
}

func TestStreamEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                                  // no header
		"n 1\n",                             // missing v header
		"v x\n",                             // bad count
		"v -1\n",                            // negative count
		"v 2\nn 1\n",                        // fewer nodes than declared
		"v 1\nn 1\nn 1\n",                   // more nodes than declared
		"v 2\nn 1\nn 1\ne 0 2 1\n",          // endpoint out of range
		"v 2\nn 1\ne 0 1 1\nn 1\n",          // edge to undeclared node
		"v 2\nn 1\nn 1\ne 1 1 1\n",          // self loop
		"v 2\nn 1\nn 1\ne 0 1 1\ne 0 1 2\n", // duplicate edge
		"v 2\nn 1\nn 1\ne 0 1 -1\n",         // negative edge weight
		"v 2\nn -1\nn 1\n",                  // negative node weight
		"v 2\nn 1\nn 1\nq 0 1\n",            // unknown line kind
		"v 1000000000\n",                    // huge header, no rows
	}
	for _, fix := range cases {
		if _, err := StreamEdgeList(strings.NewReader(fix)); err == nil {
			t.Errorf("StreamEdgeList(%q) accepted", fix)
		}
	}
}

func TestStreamEdgeListCycle(t *testing.T) {
	// A cycle needs forward references, impossible under
	// declare-before-use with e-lines only to earlier nodes — but the
	// format allows an edge from a later-declared node once declared.
	in := "v 2\nn 1\nn 1\ne 0 1 1\ne 1 0 1\n"
	if _, err := StreamEdgeList(strings.NewReader(in)); err == nil {
		t.Fatal("cyclic edge list accepted")
	}
}

func TestFinishCSRValidation(t *testing.T) {
	if _, err := FinishCSR([]float64{1, 2}, []int32{0}, []int32{1}, []float64{3}, 0); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	bad := []struct {
		name  string
		nodeW []float64
		from  []int32
		to    []int32
		ew    []float64
	}{
		{"mismatched arrays", []float64{1}, []int32{0}, nil, nil},
		{"endpoint range", []float64{1, 2}, []int32{0}, []int32{5}, nil},
		{"negative endpoint", []float64{1, 2}, []int32{-1}, []int32{1}, nil},
		{"self loop", []float64{1, 2}, []int32{1}, []int32{1}, nil},
		{"bad node weight", []float64{-1, 2}, []int32{0}, []int32{1}, nil},
		{"bad edge weight", []float64{1, 2}, []int32{0}, []int32{1}, []float64{-3}},
		{"duplicate edge", []float64{1, 2}, []int32{0, 0}, []int32{1, 1}, nil},
		{"cycle", []float64{1, 2, 3}, []int32{0, 1, 2}, []int32{1, 2, 0}, nil},
	}
	for _, c := range bad {
		if _, err := FinishCSR(c.nodeW, c.from, c.to, c.ew, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := FinishCSR([]float64{1, 2}, []int32{0}, []int32{1}, nil, -1); err == nil {
		t.Error("negative uniform weight accepted")
	}
}

// TestStreamSTGAcceptanceAgreement replays every fuzz corpus crasher
// plus the fixtures through the streaming reader, ReadSTG and the
// map-based oracle and checks accept/reject agreement (the property
// FuzzStreamSTG checks continuously).
func TestStreamSTGAcceptanceAgreement(t *testing.T) {
	inputs := append([]string{}, stgFixtures...)
	inputs = append(inputs,
		"000002000000 v1\n",
		"2\n0 1 0\n1 1e309 0\n",          // overflow to +Inf
		"3\n0 1 1 2\n1 1 1 0\n2 1 1 1\n", // cycle through preds
	)
	for _, in := range inputs {
		g, errOracle := readSTGOracle(strings.NewReader(in), 1)
		c, errStream := StreamSTG(strings.NewReader(in), 1)
		read, errRead := ReadSTG(strings.NewReader(in), 1)
		if (errOracle == nil) != (errStream == nil) || (errRead == nil) != (errStream == nil) {
			t.Fatalf("acceptance diverges on %q: oracle=%v stream=%v ReadSTG=%v", in, errOracle, errStream, errRead)
		}
		if errOracle == nil {
			compareCSR(t, BuildCSR(g), c)
			graphsEqual(t, c.ToGraph(), g)
			graphsEqual(t, read, g)
		}
	}
}
