package ish

import (
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/hlfet"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

func TestConformance(t *testing.T) {
	schedtest.Conformance(t, New(), true)
}

func TestName(t *testing.T) {
	if New().Name() != "ISH" {
		t.Fatal("name")
	}
}

func TestExampleGraphValid(t *testing.T) {
	g := example.Graph()
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

// ISH's defining move: a ready node slots into the communication gap
// another node leaves. Construct a graph where waiting for a remote
// message leaves a hole that an independent task fits into.
func TestHoleFilling(t *testing.T) {
	// a on PE0 feeds b with an expensive message... on 1 processor the
	// interesting case: entry a (w=1), then child b whose DAT is
	// inflated by a second parent on the same machine? With one
	// processor there are no gaps. Use 2 processors:
	//   a(w=4) -> b(w=1, c=6): b's best start anywhere is 5 (local PE0).
	//   But force b remote by filling PE0: add long task l(w=10) with
	//   higher SL... Simpler direct check: independent short task fits
	//   into the gap before a high-SL node waiting on its message.
	g := dag.New(4)
	a := g.AddNode("a", 2)
	b := g.AddNode("b", 8) // child of a, big SL
	bc := g.AddNode("bc", 1)
	filler := g.AddNode("filler", 3) // independent, low SL
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, bc, 0)
	_ = filler

	s, err := New().Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	// single processor: serial, no gaps possible
	if s.Length() != g.TotalWork() {
		t.Fatalf("serial length %v != %v", s.Length(), g.TotalWork())
	}

	// Two processors and a remote message: a runs on PE0; b prefers PE0
	// (local, start 2). HLFET would leave PE1 idle for filler at 0; ISH
	// behaves at least as well as HLFET here.
	ishS, err := New().Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	hlfetS, err := hlfet.New().Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ishS.Length() > hlfetS.Length()+1e-9 {
		t.Fatalf("ISH (%v) worse than HLFET (%v)", ishS.Length(), hlfetS.Length())
	}
}

// Direct gap-fill scenario: two entry tasks where the second must wait
// for a message gap on the chosen processor.
func TestFillsCommunicationGap(t *testing.T) {
	// PE count 1; x (w=1) -> y (w=1, comm 5). On one processor comm is
	// zero, no gap. Use 2 procs and pin the situation: x on PE0; y's
	// earliest start is 1 on PE0 (local) — pick a graph where the gap
	// genuinely appears: two chains sharing one processor.
	//   p (w=1) -> q (w=1) with comm 10; plus independent i (w=2).
	// With 2 procs: p@PE0 t=0; q: PE0 local start 1 beats remote 11.
	// i fills PE1. Everything ends by 3; just assert validity and the
	// area bound.
	g := dag.New(3)
	p := g.AddNode("p", 1)
	q := g.AddNode("q", 1)
	i := g.AddNode("i", 2)
	g.MustAddEdge(p, q, 10)
	_ = i
	s, err := New().Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Length() > 4 {
		t.Fatalf("length = %v, want <= 4", s.Length())
	}
}

// TestMainNodeStartsAfterLatestFinish pins two zero- and
// decimal-weight graphs on which a hole filler finishes a rounding
// error after the zero-length main node whose gap it fills. That filler
// sorts before the main node on the timeline, so the processor's last
// slot is not its latest finish. The next main node placed there must
// start at or after every finish on the processor, not at the last
// slot's.
func TestMainNodeStartsAfterLatestFinish(t *testing.T) {
	type edge struct {
		from, to int
		w        float64
	}
	for _, tc := range []struct {
		name    string
		weights []float64
		edges   []edge
		procs   int
		// node starts after every node of after, all placed on its
		// processor before it.
		node  dag.NodeID
		after []dag.NodeID
	}{{
		// Processor 1 runs n0 [0, 0.1), the main node n5 at 0.3, and the
		// filler n7 [0.1, 0.1+0.2), which ends 4e-17 after 0.3. n6 comes
		// next.
		name:    "filler ends after a zero-length main",
		weights: []float64{0.1, 0, 0, 0, 0.7, 0, 0.2, 0.2},
		edges: []edge{{0, 1, 0.1}, {0, 7, 0}, {2, 5, 0}, {2, 7, 0.1}, {3, 4, 0.1}, {3, 5, 0.3},
			{5, 6, 0.1}},
		procs: 3,
		node:  6, after: []dag.NodeID{0, 5, 7},
	}, {
		// Processor 1 ends with the main node n9 at 2.8999999999999995
		// and the filler n5 [2.8, 2.9) in its gap; n1 comes next.
		name:    "filler ends after a zero-length main, later in the run",
		weights: []float64{0.3, 0, 0.2, 2.3, 1.1, 0.1, 0.2, 2.3, 0.7, 0, 0.3, 0, 1.1},
		edges: []edge{{0, 3, 0}, {0, 5, 0.2}, {1, 11, 0.3}, {2, 5, 0.2}, {2, 8, 0.3}, {2, 11, 2.3},
			{2, 12, 0}, {3, 8, 0}, {3, 9, 0.3}, {4, 10, 0.7}, {5, 11, 0}, {7, 9, 2.3}, {7, 10, 0.2},
			{8, 11, 0}, {8, 12, 0.1}, {9, 12, 0.3}, {10, 12, 2.3}},
		procs: 3,
		node:  1, after: []dag.NodeID{5, 7, 9, 10},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			g := dag.New(len(tc.weights))
			for _, w := range tc.weights {
				g.AddNode("", w)
			}
			for _, e := range tc.edges {
				g.MustAddEdge(dag.NodeID(e.from), dag.NodeID(e.to), e.w)
			}
			s, err := New().Schedule(g, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			pl := s.Of(tc.node)
			for _, n := range tc.after {
				if o := s.Of(n); o.Proc != pl.Proc || pl.Start < o.Finish {
					t.Errorf("node %d starts at %v on processor %d, before node %d finishes at %v on processor %d",
						tc.node, pl.Start, pl.Proc, n, o.Finish, o.Proc)
				}
			}
		})
	}
}
