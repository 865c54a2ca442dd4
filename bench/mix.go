package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"fastsched/internal/dag"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// The paper mix: the §5.2 random DAGs at the paper's density plus the
// five application graphs of §5.1 (Gauss, Laplace, FFT, LU, Cholesky),
// each rescaled to a CCR of 0.1, 1 or 10 and scheduled on 4 or 16
// processors. The shape of a draw is fixed: slot i has the same kind,
// size, CCR and processor count for every seed — kinds, CCRs and
// processor counts cycle, and the sizes of a kind follow a golden-ratio
// sequence, which spreads every prefix of the pool over the size range.
// The seed draws the content, each slot from a source of its own: the
// random DAGs' edges, the weight jitter and FAST's seed. Two seeds so give different graphs with the same
// work, which keeps the metrics of a 32-request pool steady from seed to
// seed.

// mix bounds the task counts of a paper-mix draw.
type mix struct {
	randMin, randMax int // §5.2 random DAGs
	appMin, appMax   int // application graphs
}

var (
	mixCCRs  = []float64{0.1, 1, 10}
	mixProcs = []int{4, 16}
)

const mixKinds = 6

// appKind builds one application graph family by its size parameter.
type appKind struct {
	count func(n int) int
	build func(n int) (*dag.Graph, error)
	minN  int
}

var appKinds = []appKind{
	{workload.GaussTaskCount, func(n int) (*dag.Graph, error) { return workload.GaussElim(n, timing.ParagonLike()) }, 1},
	{workload.LaplaceTaskCount, func(n int) (*dag.Graph, error) { return workload.Laplace(n, timing.ParagonLike()) }, 1},
	{func(k int) int { return workload.FFTTaskCount(1 << k) }, func(k int) (*dag.Graph, error) { return workload.FFT(1<<k, timing.ParagonLike()) }, 2},
	{func(n int) int { return n*(n+1)/2 - 1 }, func(n int) (*dag.Graph, error) { return workload.LU(n, timing.ParagonLike()) }, 2},
	{func(n int) int { return n * (n + 1) / 2 }, func(n int) (*dag.Graph, error) { return workload.Cholesky(n, timing.ParagonLike()) }, 1},
}

// appGraph returns the kind's graph whose task count is nearest to
// target, preferring sizes inside [lo, hi].
func appGraph(k appKind, target, lo, hi int) (*dag.Graph, error) {
	best, bestDist := -1, 0
	for n := k.minN; k.count(n) <= 4*hi; n++ {
		c := k.count(n)
		d := c - target
		if d < 0 {
			d = -d
		}
		if c < lo || c > hi {
			d += 1 << 20
		}
		if best < 0 || d < bestDist {
			best, bestDist = n, d
		}
	}
	return k.build(best)
}

// mixGraph draws one graph of kind (0 = random, 1.. = appKinds) at size
// quantile u in [0, 1), jitters its node weights (so no two draws share
// content) and rescales it to the given CCR.
func mixGraph(m mix, kind int, u, ccr float64, rng *rand.Rand) (*dag.Graph, error) {
	var g *dag.Graph
	var err error
	if kind == 0 {
		v := m.randMin + int(u*float64(m.randMax-m.randMin+1))
		g, err = workload.Random(workload.RandomOpts{V: v, Seed: rng.Int63()})
	} else {
		target := m.appMin + int(u*float64(m.appMax-m.appMin+1))
		g, err = appGraph(appKinds[kind-1], target, m.appMin, m.appMax)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := dag.NodeID(i)
		g.SetWeight(n, round3(g.Weight(n)*(0.5+rng.Float64())))
	}
	timing.ScaleCCR(g, ccr)
	for _, e := range g.Edges() {
		g.SetEdgeWeight(e.From, e.To, round3(e.Weight))
	}
	return g, nil
}

// round3 rounds a weight to three decimals, which keeps request bodies
// short without changing the mix.
func round3(w float64) float64 { return math.Round(w*1000) / 1000 }

// slotRand is the random source of paper-mix slot i under seed. Each
// slot has its own, so slots can be drawn in parallel and in any order.
func slotRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// drawSlot draws paper-mix slot i: its graph and processor count.
func drawSlot(m mix, i int, rng *rand.Rand) (*dag.Graph, int, error) {
	j := i / mixKinds // the slot's rank within its kind
	_, u := math.Modf(0.5 + float64(j)*(math.Sqrt(5)-1)/2)
	g, err := mixGraph(m, i%mixKinds, u, mixCCRs[j%len(mixCCRs)], rng)
	if err != nil {
		return nil, 0, fmt.Errorf("paper mix draw %d: %w", i, err)
	}
	return g, mixProcs[(j/len(mixCCRs))%len(mixProcs)], nil
}

// drawMix returns the first n paper-mix graphs under seed with their
// processor counts.
func drawMix(m mix, n int, seed int64) ([]*dag.Graph, []int, error) {
	graphs := make([]*dag.Graph, n)
	procs := make([]int, n)
	err := parallel(n, func(i int) error {
		var err error
		graphs[i], procs[i], err = drawSlot(m, i, slotRand(seed, i))
		return err
	})
	return graphs, procs, err
}

// request is one pre-encoded POST /v1/schedule body. Only the body is
// kept: a pool of graphs would triple the benchmark's heap, and with it
// the server's garbage-collection pacing.
type request struct {
	body         []byte
	procs        int
	seed         int64
	tasks, edges int
}

// graph decodes the request's graph as schedd does, so its edge order,
// and with it FAST's tie-breaks, match what the server scheduled.
func (rq request) graph() (*dag.Graph, error) {
	var b submitBody
	if err := json.Unmarshal(rq.body, &b); err != nil {
		return nil, err
	}
	g, _, err := dag.ReadJSON(bytes.NewReader(b.Graph))
	return g, err
}

// submitBody mirrors the schedd request schema.
type submitBody struct {
	Graph     json.RawMessage `json:"graph"`
	Algorithm string          `json:"algorithm"`
	Procs     int             `json:"procs"`
	Seed      int64           `json:"seed"`
}

// drawRequests returns the first n paper-mix requests under seed, for
// algorithm fast.
func drawRequests(m mix, n int, seed int64) ([]request, error) {
	out := make([]request, n)
	err := parallel(n, func(i int) error {
		rng := slotRand(seed, i)
		g, procs, err := drawSlot(m, i, rng)
		if err != nil {
			return err
		}
		var graph bytes.Buffer
		if err := dag.WriteJSON(&graph, g, ""); err != nil {
			return err
		}
		// The body is written out rather than marshalled from a
		// submitBody, which would compact the graph a second time.
		fastSeed := 1 + rng.Int63n(1000)
		body := bytes.NewBuffer(make([]byte, 0, graph.Len()/2))
		body.WriteString(`{"graph":`)
		if err := json.Compact(body, graph.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(body, `,"algorithm":"fast","procs":%d,"seed":%d}`, procs, fastSeed)
		out[i] = request{body: body.Bytes(), procs: procs, seed: fastSeed, tasks: g.NumNodes(), edges: g.NumEdges()}
		return nil
	})
	return out, err
}
