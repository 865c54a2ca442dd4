package plan

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// graphKeyWalk is GraphKey as it was written over the graph's
// successor lists, kept as the oracle for the digest over the CSR: the
// same byte sequence, so digests and the snapshots that carry them
// stay valid. A graph that lists some node's parents out of ascending
// ID order also hashes every predecessor list's parents, node by node.
func graphKeyWalk(g *dag.Graph) Key {
	var buf []byte
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	v := g.NumNodes()
	u64(uint64(v))
	for i := 0; i < v; i++ {
		u64(math.Float64bits(g.Weight(dag.NodeID(i))))
	}
	u64(uint64(g.NumEdges()))
	for i := 0; i < v; i++ {
		succ := g.Succ(dag.NodeID(i))
		u64(uint64(len(succ)))
		for _, e := range succ {
			u64(uint64(e.To))
			u64(math.Float64bits(e.Weight))
		}
	}
	ascending := true
	for i := 0; i < v; i++ {
		pred := g.Pred(dag.NodeID(i))
		for j := 1; j < len(pred); j++ {
			ascending = ascending && pred[j].From > pred[j-1].From
		}
	}
	if !ascending {
		for i := 0; i < v; i++ {
			for _, e := range g.Pred(dag.NodeID(i)) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
			}
		}
	}
	return Key(sha256.Sum256(buf))
}

// mixGraphs draws graphs shaped like schedd's request mix: §5.2 random
// DAGs and the five application families, node weights jittered and
// rounded to three decimals, rescaled to a CCR of 0.1, 1 or 10.
func mixGraphs(t *testing.T, seed int64, n int) []*dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := timing.ParagonLike()
	round3 := func(w float64) float64 { return math.Round(w*1000) / 1000 }
	var out []*dag.Graph
	for i := 0; i < n; i++ {
		var g *dag.Graph
		var err error
		switch i % 6 {
		case 0:
			g, err = workload.Random(workload.RandomOpts{V: 50 + rng.Intn(250), Seed: rng.Int63()})
		case 1:
			g, err = workload.GaussElim(4+rng.Intn(12), db)
		case 2:
			g, err = workload.Laplace(3+rng.Intn(12), db)
		case 3:
			g, err = workload.FFT(1<<(2+rng.Intn(4)), db)
		case 4:
			g, err = workload.LU(3+rng.Intn(12), db)
		case 5:
			g, err = workload.Cholesky(3+rng.Intn(12), db)
		}
		if err != nil {
			t.Fatal(err)
		}
		for id := range dag.NodeID(g.NumNodes()) {
			g.SetWeight(id, round3(g.Weight(id)*(0.5+rng.Float64())))
		}
		g = timing.ScaleCCR(g, []float64{0.1, 1, 10}[i%3])
		for _, e := range g.Edges() {
			g.SetEdgeWeight(e.From, e.To, round3(e.Weight))
		}
		out = append(out, g)
	}
	return out
}

// TestGraphKeyMatchesGraphWalk: the digest over the CSR equals the
// graph-walk digest on the request mix, the oracle corpus and the
// snapshot tests' graphs, both as built and as decoded from their JSON
// form, whose CSR the digest reads.
func TestGraphKeyMatchesGraphWalk(t *testing.T) {
	graphs := mixGraphs(t, 1, 48)
	for _, in := range schedtest.OracleCorpus() {
		graphs = append(graphs, in.Graph)
	}
	for _, snap := range []struct {
		seed int64
		n    int
		size func(rng *rand.Rand, i int) int
	}{
		{11, 8, func(rng *rand.Rand, _ int) int { return 8 + rng.Intn(24) }}, // batch.TestSnapshotRoundTrip
		{8, 6, func(_ *rand.Rand, i int) int { return 16 + 4*i }},            // server.TestWarmRestartCacheHit
		{9, 1, func(*rand.Rand, int) int { return 40 }},                      // server.TestSnapshotGraphsSurviveJSONRoundTrip
	} {
		rng := rand.New(rand.NewSource(snap.seed))
		for i := 0; i < snap.n; i++ {
			graphs = append(graphs, schedtest.RandomLayered(rng, snap.size(rng, i)))
		}
	}
	reordered := 0 // graphs whose parent lists the JSON form reorders
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := dag.WriteJSON(&buf, g, ""); err != nil {
			t.Fatal(err)
		}
		decoded, _, err := dag.ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []*dag.Graph{g, decoded} {
			if GraphKey(h) != graphKeyWalk(h) {
				t.Fatalf("graph %d (v=%d): GraphKey differs from the graph-walk digest", i, h.NumNodes())
			}
		}
		if GraphKey(g) != GraphKey(decoded) {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("no graph lists its parents out of ascending order: the predecessor digest is untested")
	}
}
