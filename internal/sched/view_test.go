package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastsched/internal/dag"
)

// referenceView is the per-processor view built by a plain comparison
// sort: the assigned nodes by (processor, start, node), with starts
// compared by < alone so −0 ties +0.
func referenceView(s *Schedule) *procView {
	var nodes []int32
	for n, p := range s.proc {
		if p >= 0 {
			nodes = append(nodes, int32(n))
		}
	}
	slices.SortStableFunc(nodes, func(a, b int32) int {
		if c := cmp.Compare(s.proc[a], s.proc[b]); c != 0 {
			return c
		}
		if sa, sb := s.start[a], s.start[b]; sa < sb {
			return -1
		} else if sa > sb {
			return 1
		}
		return cmp.Compare(a, b)
	})
	vw := &procView{nodes: nodes}
	for i, n := range nodes {
		if p := int(s.proc[n]); i == 0 || p != vw.procs[len(vw.procs)-1] {
			vw.procs = append(vw.procs, p)
			vw.off = append(vw.off, int32(i))
		}
	}
	vw.off = append(vw.off, int32(len(nodes)))
	return vw
}

// randomViewCase builds a random graph and a list schedule of it that
// stresses the view's order: processor groups on both sides of the
// sort's radix cutoff, dense or sparse processor IDs (up to 2³¹−2),
// zero-weight nodes placed at a neighbour's start, −0 starts, and in
// some cases one fault — two positive tasks at one start, or a child
// moved ahead of its message.
func randomViewCase(rng *rand.Rand, big bool) (*dag.CSR, *Schedule) {
	v := 1 + rng.Intn(60)
	if big {
		v = 3000 + rng.Intn(4000)
	}
	g := dag.New(v)
	for range v {
		w := float64(1 + rng.Intn(5))
		if rng.Intn(5) == 0 {
			w = 0
		}
		g.AddNode("", w)
	}
	for n := 1; n < v; n++ {
		for range rng.Intn(3) {
			_ = g.AddEdge(dag.NodeID(rng.Intn(n)), dag.NodeID(n), float64(rng.Intn(4)))
		}
	}
	c := dag.BuildCSR(g)

	ids := make([]int, 1+rng.Intn(5))
	sparse := rng.Intn(2) == 0
	for i := range ids {
		ids[i] = i
		if sparse {
			ids[i] = rng.Intn(math.MaxInt32)
		}
	}
	if sparse {
		ids[len(ids)-1] = math.MaxInt32 - 1
	}
	procCount := 0
	if !sparse {
		procCount = len(ids) + rng.Intn(2)
	}
	proc, start, finish := make([]int32, v), make([]float64, v), make([]float64, v)
	ready := map[int32]float64{}
	last := map[int32]int{} // the last node placed on each processor
	for n := range v {
		// A skewed draw, so a big graph's first processor holds more than
		// the cutoff and its last ones less.
		p := int32(ids[min(rng.Intn(len(ids)), rng.Intn(len(ids)))])
		arrived := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := finish[from]
			if proc[from] != p {
				arrival += c.PredW[s]
			}
			arrived = max(arrived, arrival)
		}
		st := max(ready[p], arrived)
		if prev, ok := last[p]; ok && c.NodeW[n] == 0 && rng.Intn(2) == 0 && arrived <= start[prev] {
			st = start[prev] // a zero-duration task at a neighbour's start
		}
		if st == 0 && rng.Intn(2) == 0 {
			st = math.Copysign(0, -1)
		}
		proc[n], start[n], finish[n] = p, st, st+c.NodeW[n]
		ready[p] = max(ready[p], finish[n])
		last[p] = n
	}
	switch rng.Intn(4) {
	case 0: // two positive tasks on one processor at one start
		a, b := rng.Intn(v), rng.Intn(v)
		if a != b && c.NodeW[a] > 0 && c.NodeW[b] > 0 {
			proc[b], start[b], finish[b] = proc[a], start[a], start[a]+c.NodeW[b]
		}
	case 1: // a child moved ahead of its message
		if n := rng.Intn(v); c.PredOff[n] < c.PredOff[n+1] && start[n] > 0 {
			start[n], finish[n] = 0, c.NodeW[n]
		}
	}
	return c, FromArrays("", procCount, proc, start, finish)
}

// TestViewMatchesSortReference holds the per-processor view — OnProc,
// Procs, ProcsUsed and Balance — and ValidateFlat's verdict and error
// text to a clone of the schedule that carries referenceView, on random
// schedules whose groups lie on both sides of the start sort's radix
// cutoff.
func TestViewMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 120 {
		c, s := randomViewCase(rng, trial%6 == 0)
		ref := s.Clone()
		ref.view.Store(referenceView(s))
		procs := ref.Procs()
		if got := s.Procs(); !slices.Equal(got, procs) {
			t.Fatalf("trial %d: Procs %v, want %v", trial, got, procs)
		}
		if got, want := s.ProcsUsed(), ref.ProcsUsed(); got != want {
			t.Fatalf("trial %d: ProcsUsed %d, want %d", trial, got, want)
		}
		for _, p := range procs {
			if !slices.Equal(s.OnProc(p), ref.OnProc(p)) {
				t.Fatalf("trial %d: OnProc(%d) differs from the reference", trial, p)
			}
		}
		if got, want := s.Balance(), ref.Balance(); got != want {
			t.Fatalf("trial %d: Balance %v, want %v", trial, got, want)
		}
		err, wantErr := ValidateFlat(c, s), ValidateFlat(c, ref)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: ValidateFlat %v, reference %v", trial, err, wantErr)
		}
	}
}
