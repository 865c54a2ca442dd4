package mcp

import (
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

func TestConformance(t *testing.T) {
	schedtest.Conformance(t, New(), true)
}

func TestName(t *testing.T) {
	if New().Name() != "MCP" {
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

// MCP's defining move: nodes are taken in ascending ALAP order, so the
// zero-mobility critical path runs first and tightest.
func TestCriticalPathFirst(t *testing.T) {
	g := example.Graph()
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// n1 (ALAP 0) must start at 0; n7 (ALAP 12) must be placed no later
	// than a greedy insertion allows on its parent's processor.
	if s.Start(example.N(1)) != 0 {
		t.Fatalf("n1 starts at %v", s.Start(example.N(1)))
	}
}

// MCP uses insertion: a short task slots into an idle gap left on a
// processor rather than queueing at the end.
func TestInsertionFillsGaps(t *testing.T) {
	// a --10--> b, plus independent c (tiny): with 1 processor, c should
	// fill the idle gap between a and b if scheduled after them.
	g := dag.New(3)
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.AddNode("c", 2) // independent filler task
	g.MustAddEdge(a, b, 10)
	s, err := New().Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	// Single processor: a at 0-1, comm zeroed so b can go 1-2; either
	// way total must be the serial 4 at most... with insertion the
	// makespan is exactly 4 (no artificial idle).
	if s.Length() != 4 {
		t.Fatalf("length = %v, want 4", s.Length())
	}
}

func TestCompareLex(t *testing.T) {
	cases := []struct {
		a, b []float64
		want int
	}{
		{nil, nil, 0},
		{[]float64{1}, nil, 1},
		{nil, []float64{1}, -1},
		{[]float64{1, 2}, []float64{1, 3}, -1},
		{[]float64{2}, []float64{1, 9}, 1},
		{[]float64{1, 2}, []float64{1, 2}, 0},
		{[]float64{1, 2}, []float64{1, 2, 0}, -1},
	}
	for i, c := range cases {
		if got := compareLex(c.a, c.b); got != c.want {
			t.Errorf("case %d: compareLex(%v,%v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestPosHeapOrdering(t *testing.T) {
	pos := []int{3, 0, 2, 1}
	h := posHeap(pos)
	for i := 0; i < 4; i++ {
		h.Push(dag.NodeID(i))
	}
	want := []dag.NodeID{1, 3, 2, 0}
	for _, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}
