package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// decodeBodies are submit bodies shaped like schedd's request mix, one
// whose tasks carry labels (Gaussian elimination, v=170, e=305) and one
// whose tasks do not (a §5.2 random DAG, v=120, e=2495): node weights
// jittered and rounded to three decimals, rescaled to CCR 1, for FAST
// on four processors.
func decodeBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	gauss, err := workload.GaussElim(16, timing.ParagonLike())
	if err != nil {
		tb.Fatal(err)
	}
	random, err := workload.Random(workload.RandomOpts{V: 120, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	round3 := func(w float64) float64 { return math.Round(w*1000) / 1000 }
	out := map[string][]byte{}
	for name, g := range map[string]*dag.Graph{"labelled": gauss, "unlabelled": random} {
		for id := range dag.NodeID(g.NumNodes()) {
			g.SetWeight(id, round3(g.Weight(id)*(0.5+rng.Float64())))
		}
		g = timing.ScaleCCR(g, 1)
		for _, e := range g.Edges() {
			g.SetEdgeWeight(e.From, e.To, round3(e.Weight))
		}
		var graph bytes.Buffer
		if err := dag.WriteJSON(&graph, g, ""); err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"graph": json.RawMessage(graph.Bytes()), "algorithm": "fast", "procs": 4, "seed": 1})
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = body
	}
	return out
}

// TestDecodeSubmitAllocs pins the allocations of one decode, so a
// change that adds some per node or per edge shows here. The ceilings
// are the counts measured when the decoder began building the CSR
// directly: each label is one allocation, and the rest are the file
// form's growing lists, the CSR, the graph and the cycle check's
// scratch.
func TestDecodeSubmitAllocs(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ceiling := map[string]float64{"labelled": 212, "unlabelled": 45}
	for name, body := range decodeBodies(t) {
		n := testing.AllocsPerRun(20, func() {
			if _, rej := decodeSubmit(body); rej != nil {
				t.Fatal(rej.Message)
			}
		})
		if n > ceiling[name] {
			t.Errorf("%s body: decodeSubmit allocates %.0f times, ceiling %.0f", name, n, ceiling[name])
		}
	}
}

// BenchmarkDecodeSubmit times the decode stage of a schedd miss.
func BenchmarkDecodeSubmit(b *testing.B) {
	for name, body := range decodeBodies(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, rej := decodeSubmit(body); rej != nil {
					b.Fatal(rej.Message)
				}
			}
		})
	}
}
