package listsched

import (
	"math/rand"
	"testing"

	"fastsched/internal/dag"
)

// TestPartialLevelsMatchesDefinition checks the partial level pass
// against its definition over the *dag.Graph, bit for bit, on random
// partial schedules: a random subset of nodes placed on random
// processors at random starts. With nothing placed it must also give
// the levels kernel's t-levels, b-levels and critical-path length.
func TestPartialLevelsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 500 {
		v, procs := 2+rng.Intn(30), 1+rng.Intn(4)
		c := randomCSR(rng, v)
		g := c.ToGraph()
		l, err := dag.ComputeLevelsCSR(c)
		if err != nil {
			t.Fatal(err)
		}
		proc := make([]int32, v)
		start := make([]float64, v)
		for n := range proc {
			proc[n] = -1
		}
		tl, bl := make([]float64, v), make([]float64, v)
		if cp := PartialLevels(c, l.Order, proc, start, tl, bl); cp != l.CPLen {
			t.Fatalf("trial %d: nothing placed: cp %v, levels kernel %v", trial, cp, l.CPLen)
		}
		for n := range v {
			if tl[n] != l.TLevel[n] || bl[n] != l.BLevel[n] {
				t.Fatalf("trial %d: nothing placed: node %d at t %v b %v, levels kernel %v %v",
					trial, n, tl[n], bl[n], l.TLevel[n], l.BLevel[n])
			}
		}

		for n := range v {
			if rng.Intn(2) == 0 {
				proc[n], start[n] = int32(rng.Intn(procs)), float64(rng.Intn(20))
			}
		}
		cost := func(e dag.Edge) float64 {
			if proc[e.From] >= 0 && proc[e.From] == proc[e.To] {
				return 0
			}
			return e.Weight
		}
		wantT, wantB := make([]float64, v), make([]float64, v)
		for _, n := range l.Order {
			if proc[n] >= 0 {
				wantT[n] = start[n]
				continue
			}
			for _, e := range g.Pred(n) {
				wantT[n] = max(wantT[n], wantT[e.From]+g.Weight(e.From)+cost(e))
			}
		}
		wantCP := 0.0
		for i := v - 1; i >= 0; i-- {
			n := l.Order[i]
			b := 0.0
			for _, e := range g.Succ(n) {
				b = max(b, cost(e)+wantB[e.To])
			}
			wantB[n] = g.Weight(n) + b
			wantCP = max(wantCP, wantT[n]+wantB[n])
		}
		if cp := PartialLevels(c, l.Order, proc, start, tl, bl); cp != wantCP {
			t.Fatalf("trial %d: cp %v, want %v", trial, cp, wantCP)
		}
		for n := range v {
			if tl[n] != wantT[n] || bl[n] != wantB[n] {
				t.Fatalf("trial %d: node %d at t %v b %v, want %v %v", trial, n, tl[n], bl[n], wantT[n], wantB[n])
			}
		}
	}
}
