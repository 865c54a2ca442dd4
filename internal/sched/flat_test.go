package sched

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/workload"
)

// flatFixture builds a 4-node diamond and a legal 2-processor flat
// schedule for it: 0→{1,2}→3, unit comm except the heavy 0→2 edge.
func flatFixture(t *testing.T) (*dag.CSR, *Flat) {
	t.Helper()
	g := dag.New(4)
	n0 := g.AddNode("a", 2)
	n1 := g.AddNode("b", 3)
	n2 := g.AddNode("c", 1)
	n3 := g.AddNode("d", 2)
	g.MustAddEdge(n0, n1, 1)
	g.MustAddEdge(n0, n2, 4)
	g.MustAddEdge(n1, n3, 1)
	g.MustAddEdge(n2, n3, 1)
	f := FromArrays("test", 2, []int32{0, 0, 1, 0}, []float64{0, 2, 6, 8}, []float64{2, 5, 7, 10})
	return dag.BuildCSR(g), f
}

func TestValidateFlatAccepts(t *testing.T) {
	c, f := flatFixture(t)
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if f.Length() != 10 {
		t.Fatalf("length %v, want 10", f.Length())
	}
	if f.ProcsUsed() != 2 {
		t.Fatalf("procs used %d, want 2", f.ProcsUsed())
	}
	// Both views of the one validator agree.
	if err := Validate(c.ToGraph(), f); err != nil {
		t.Fatal(err)
	}
	if got := f.OnProc(0); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("OnProc(0) = %v", got)
	}
	// Busy time 7 on PE 0 and 1 on PE 1: max 7 over mean 4.
	if b := f.Balance(); b != 7.0/4 {
		t.Fatalf("balance %v, want 1.75", b)
	}
}

func TestValidateFlatRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *Flat)
	}{
		{"short arrays", func(f *Flat) { f.proc, f.start, f.finish = f.proc[:3], f.start[:3], f.finish[:3] }},
		{"proc out of range", func(f *Flat) { f.proc[2] = 2 }},
		{"unassigned", func(f *Flat) { f.proc[0] = -1 }},
		{"negative proc", func(f *Flat) { f.proc[0] = -3 }},
		{"negative start", func(f *Flat) { f.start[0] = -1; f.finish[0] = 1 }},
		{"wrong duration", func(f *Flat) { f.finish[1] = 4 }},
		{"overlap", func(f *Flat) { f.start[1] = 1; f.finish[1] = 4 }},
		{"precedence same proc", func(f *Flat) { f.start[1] = 1.5; f.finish[1] = 4.5 }},
		{"precedence missing comm", func(f *Flat) { f.start[2] = 2; f.finish[2] = 3 }},
		{"nan start", func(f *Flat) { f.start[3] = nan(); f.finish[3] = nan() }},
		{"inf times", func(f *Flat) {
			for n := range f.start {
				f.start[n], f.finish[n] = math.Inf(1), math.Inf(1)
			}
		}},
		{"nan finish", func(f *Flat) { f.finish[3] = nan() }},
	}
	for _, tc := range cases {
		c, f := flatFixture(t)
		tc.mutate(f)
		if err := ValidateFlat(c, f); err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
		}
	}
}

// TestValidateFlatZeroDuration pins the exclusivity exemption: tasks of
// zero duration may share an instant with running work, matching
// Validate's contract for the rich representation.
func TestValidateFlatZeroDuration(t *testing.T) {
	g := dag.New(3)
	g.AddNode("a", 2)
	g.AddNode("z", 0)
	g.AddNode("b", 2)
	c := dag.BuildCSR(g)
	f := FromArrays("", 1, []int32{0, 0, 0}, []float64{0, 1, 2}, []float64{2, 1, 4})
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// layeredRoundRobin is a round-robin list schedule over procs
// processors in the given topological order — cheap to build and legal
// by construction.
func layeredRoundRobin(c *dag.CSR, order []int32, procs int) *Flat {
	v := c.NumNodes()
	assign, start, finish := make([]int32, v), make([]float64, v), make([]float64, v)
	ready := make([]float64, procs)
	for i, n := range order {
		p := int32(i % procs)
		assign[n] = p
		st := ready[p]
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := finish[from]
			if assign[from] != p {
				arrival += c.PredW[s]
			}
			st = max(st, arrival)
		}
		start[n] = st
		finish[n] = st + c.NodeW[n]
		ready[p] = finish[n]
	}
	return FromArrays("", procs, assign, start, finish)
}

// TestValidateFlatBig checks the validator's scaling contract
// (satellite of the million-node path): a 10⁵-node layered schedule
// must validate well inside a CI-friendly time budget — the sort-based
// exclusivity check is O(v log v), never the all-pairs O(v²).
func TestValidateFlatBig(t *testing.T) {
	v := 100000
	if s := os.Getenv("FASTSCHED_SCALE_V"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 1 {
			v = n
		}
	}
	if testing.Short() {
		v = 10000
	}
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: v, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	f := layeredRoundRobin(c, order, 8)
	begin := time.Now()
	if err := ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 5*time.Second {
		t.Fatalf("validated %d nodes in %v, budget 5s", v, d)
	}
}

// BenchmarkValidateFlat times the one validator on an 8-processor
// layered schedule, the per-processor view rebuilt every iteration.
func BenchmarkValidateFlat(b *testing.B) {
	for _, v := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			c, err := workload.LayeredCSR(workload.LayeredOpts{V: v, Seed: 17})
			if err != nil {
				b.Fatal(err)
			}
			order, err := c.TopoOrder()
			if err != nil {
				b.Fatal(err)
			}
			f := layeredRoundRobin(c, order, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.view.Store(nil)
				if err := ValidateFlat(c, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
