package sched

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastsched/internal/dag"
)

// chainGraph: a(2) --5--> b(3) --1--> c(1)
func chainGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New(3)
	a := g.AddNode("a", 2)
	b := g.AddNode("b", 3)
	c := g.AddNode("c", 1)
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(b, c, 1)
	return g
}

func TestPlaceAndQuery(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 1, 6, 7)
	if s.Proc(0) != 0 || s.Start(1) != 2 || s.Finish(2) != 7 {
		t.Fatal("placement query mismatch")
	}
	if s.ProcsUsed() != 2 {
		t.Fatalf("ProcsUsed = %d", s.ProcsUsed())
	}
	if got := s.Length(); got != 7 {
		t.Fatalf("Length = %v", got)
	}
	if err := Validate(g, s); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestReplaceMovesNode(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(0, 3, 1, 3) // move
	if s.Proc(0) != 3 || s.Start(0) != 1 {
		t.Fatal("re-place did not move node")
	}
	if s.ProcsUsed() != 1 {
		t.Fatalf("ProcsUsed = %d after move", s.ProcsUsed())
	}
	if len(s.OnProc(0)) != 0 {
		t.Fatal("old processor still lists node")
	}
}

func TestOfPanicsOnUnassigned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(2)
	_ = s.Of(1)
}

func TestOnProcSortedByStart(t *testing.T) {
	s := New(3)
	s.Place(2, 0, 5, 6)
	s.Place(0, 0, 0, 1)
	s.Place(1, 0, 2, 3)
	got := s.OnProc(0)
	want := []dag.NodeID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnProc = %v", got)
		}
	}
}

func TestValidateCatchesUnassigned(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesWrongDuration(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 3) // weight is 2
	s.Place(1, 0, 8, 11)
	s.Place(2, 0, 11, 12)
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 1, 4) // overlaps a on PE 0
	s.Place(2, 0, 5, 6)
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v", err)
	}
}

// TestValidateZeroWidthNeverOverlaps pins the zero-duration semantics
// shared with listsched.Timeline: an instantaneous task occupies no
// processor time, so its [x,x) placement is legal at any instant on a
// busy processor — including the start of a running task's interval —
// while positive-width overlaps are still caught around it. (Found by
// FuzzBatchSubmit: a zero-weight node placed at the start of another
// task's slot is accepted by the timeline but was rejected here.)
func TestValidateZeroWidthNeverOverlaps(t *testing.T) {
	g := dag.New(3)
	a := g.AddNode("a", 2)
	z := g.AddNode("z", 0)
	b := g.AddNode("b", 3)
	g.MustAddEdge(a, b, 1)

	s := New(g.NumNodes())
	s.Place(a, 0, 0, 2)
	s.Place(z, 0, 0, 0) // instantaneous, shares a's start instant
	s.Place(b, 0, 2, 5)
	if err := Validate(g, s); err != nil {
		t.Fatalf("zero-width placement rejected: %v", err)
	}

	// A real overlap between the positive-width neighbours is still an
	// error even with the zero-width task sorted between them.
	s = New(g.NumNodes())
	s.Place(a, 0, 0, 2)
	s.Place(z, 0, 1, 1)
	s.Place(b, 0, 1, 4) // collides with a
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesPrecedenceLocal(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 1.5, 4.5) // starts before parent finishes... also overlaps;
	// use separate procs to isolate precedence
	s = New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(1, 1, 3, 6) // needs DAT 2+5=7 on remote proc
	s.Place(2, 1, 6, 7)
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "precedence") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateAcceptsZeroedLocalComm(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	// same processor: comm is zero, b can start right at a's finish
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 0, 5, 6)
	if err := Validate(g, s); err != nil {
		t.Fatalf("co-located schedule rejected: %v", err)
	}
}

func TestValidateCatchesNegativeStart(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, -1, 1)
	s.Place(1, 0, 6, 9)
	s.Place(2, 0, 9, 10)
	if err := Validate(g, s); err == nil || !strings.Contains(err.Error(), "< 0") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateSizeMismatch(t *testing.T) {
	g := chainGraph(t)
	if err := Validate(g, New(2)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	g := chainGraph(t) // total work 6
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 0, 5, 6)
	if sp := s.Speedup(g); sp != 1 {
		t.Fatalf("Speedup = %v", sp)
	}
	if ef := s.Efficiency(g); ef != 1 {
		t.Fatalf("Efficiency = %v", ef)
	}
	empty := New(g.NumNodes())
	if empty.Speedup(g) != 0 || empty.Efficiency(g) != 0 {
		t.Fatal("empty schedule metrics should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Algorithm = "X"
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 0, 5, 6)
	c := s.Clone()
	c.Place(2, 7, 100, 101)
	if s.Proc(2) != 0 || s.Length() != 6 {
		t.Fatal("clone mutated original")
	}
	if c.Algorithm != "X" {
		t.Fatal("clone lost algorithm name")
	}
	if err := Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

func TestGanttAndTableRender(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Algorithm = "FAST"
	s.Place(0, 0, 0, 2)
	s.Place(1, 1, 7, 10)
	s.Place(2, 1, 10, 11)
	out := Gantt(g, s, 40)
	for _, want := range []string{"FAST", "PE 0", "PE 1", "[a", "[b"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt missing %q:\n%s", want, out)
		}
	}
	tab := Table(g, s)
	if !strings.Contains(tab, "a") || !strings.Contains(tab, "start") {
		t.Errorf("Table output:\n%s", tab)
	}
	if out := Gantt(g, New(g.NumNodes()), 40); !strings.Contains(out, "empty") {
		t.Errorf("empty gantt = %q", out)
	}
}

func TestValidateDurations(t *testing.T) {
	g := chainGraph(t)
	// Realized durations differ from the nominal weights (jittered run):
	// a took 2.5, b took 2.8, c took 1.1.
	dur := []float64{2.5, 2.8, 1.1}
	s := New(3)
	s.Place(0, 0, 0, 2.5)
	s.Place(1, 0, 2.5, 5.3)
	s.Place(2, 1, 6.5, 7.6)
	if err := Validate(g, s); err == nil {
		t.Fatal("plain Validate accepted jittered durations")
	}
	if err := ValidateDurations(g, s, dur); err != nil {
		t.Fatalf("duration-aware validation rejected a legal run: %v", err)
	}
	// Precedence and overlap stay enforced under custom durations.
	bad := s.Clone()
	bad.Place(2, 1, 6.2, 7.3) // b finishes 5.3, +1 comm => c may not start before 6.3
	if err := ValidateDurations(g, bad, dur); err == nil {
		t.Fatal("precedence violation accepted")
	}
	if err := ValidateDurations(g, s, []float64{1}); err == nil {
		t.Fatal("mis-sized durations accepted")
	}
	if err := ValidateDurations(g, s, nil); err == nil {
		t.Fatal("nil durations must behave like plain Validate")
	}
}

// TestValidateRejectsBadValues covers the values both former
// validators let through: non-finite times, a negative processor and
// an infinite realized duration.
func TestValidateRejectsBadValues(t *testing.T) {
	g := chainGraph(t)
	inf := math.Inf(1)
	every := func(start, finish float64) *Schedule {
		s := New(3)
		for n := 0; n < 3; n++ {
			s.Place(dag.NodeID(n), 0, start, finish)
		}
		return s
	}
	chain := func(last float64) *Schedule {
		s := New(3)
		s.Place(0, 0, 0, 2)
		s.Place(1, 0, 2, 5)
		s.Place(2, 0, 5, last)
		return s
	}
	cases := []struct {
		name string
		s    *Schedule
		dur  []float64
		want string
	}{
		{"all NaN times", every(math.NaN(), math.NaN()), nil, "non-finite"},
		{"all +Inf times", every(inf, inf), nil, "non-finite"},
		{"negative processor", FromArrays("", 0, []int32{-3, -3, -3}, []float64{0, 2, 5}, []float64{2, 5, 6}), nil, "< 0"},
		{"+Inf realized duration", chain(inf), []float64{2, 3, inf}, "non-finite"},
		{"NaN realized duration", chain(6), []float64{2, 3, math.NaN()}, "duration"},
	}
	for _, tc := range cases {
		if err := ValidateDurations(g, tc.s, tc.dur); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := ValidateDurations(g, chain(6), []float64{2, 3, 1}); err != nil {
		t.Fatalf("finite control case rejected: %v", err)
	}
}

func TestPlaceRejectsOutOfRangeProcessors(t *testing.T) {
	for _, p := range []int{-1, -3, math.MaxInt32 + 1, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place on processor %d did not panic", p)
				}
			}()
			New(1).Place(0, p, 0, 1)
		}()
	}
	s := New(1)
	s.Place(0, math.MaxInt32, 0, 1)
	if s.Proc(0) != math.MaxInt32 {
		t.Fatalf("proc = %d", s.Proc(0))
	}
}

func TestFromArraysRejectsMismatchedLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched arrays accepted")
		}
	}()
	FromArrays("", 1, []int32{0, 0}, []float64{0}, []float64{1, 2})
}

// TestViewSparseProcessors pins the per-processor view on IDs far apart
// in every byte: groups come out ascending and ordered by (start, node).
func TestViewSparseProcessors(t *testing.T) {
	s := New(6)
	s.Place(0, math.MaxInt32, 3, 4)
	s.Place(1, 1<<20, 0, 1)
	s.Place(2, math.MaxInt32, 1, 2)
	s.Place(3, 5, 2, 3)
	s.Place(4, 1<<20, 0, 0)
	// node 5 stays unassigned
	if got, want := s.Procs(), []int{5, 1 << 20, math.MaxInt32}; !slices.Equal(got, want) {
		t.Fatalf("Procs = %v, want %v", got, want)
	}
	if s.ProcsUsed() != 3 {
		t.Fatalf("ProcsUsed = %d", s.ProcsUsed())
	}
	if got := s.OnProc(1 << 20); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("OnProc(1<<20) = %v, want [1 4] (equal starts break to the smaller ID)", got)
	}
	if got := s.OnProc(math.MaxInt32); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("OnProc(MaxInt32) = %v, want [2 0]", got)
	}
	if s.OnProc(6) != nil {
		t.Fatal("idle processor lists nodes")
	}
	// Busy 1 on PE 5, 1 on PE 1<<20, 2 on PE MaxInt32: max 2 over mean 4/3.
	if b := s.Balance(); b != 2/(4.0/3) {
		t.Fatalf("Balance = %v", b)
	}
}

// TestViewFollowsPlace checks that a read after Place sees the change,
// and that a clone carries a built view without sharing later moves.
func TestViewFollowsPlace(t *testing.T) {
	s := New(3)
	s.Place(0, 0, 0, 1)
	s.Place(1, 0, 1, 2)
	s.Place(2, 1, 0, 1)
	if s.ProcsUsed() != 2 {
		t.Fatalf("ProcsUsed = %d", s.ProcsUsed())
	}
	c := s.Clone()
	if c.view.Load() != s.view.Load() {
		t.Fatal("clone rebuilt a view it could share")
	}
	s.Place(2, 0, 2, 3)
	if s.ProcsUsed() != 1 || len(s.OnProc(0)) != 3 {
		t.Fatalf("view missed a move: used %d, OnProc(0) = %v", s.ProcsUsed(), s.OnProc(0))
	}
	if c.ProcsUsed() != 2 || len(c.OnProc(1)) != 1 {
		t.Fatal("move reached the clone")
	}
	if b := New(2).Balance(); b != 1 {
		t.Fatalf("empty Balance = %v", b)
	}
}

// TestConcurrentReadsOfSharedSchedule is the result cache's pattern:
// one published schedule read and cloned from many goroutines, its view
// built by whichever reader comes first. Run under -race.
func TestConcurrentReadsOfSharedSchedule(t *testing.T) {
	g := chainGraph(t)
	s := New(3)
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 1, 6, 7)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.ProcsUsed() != 2 || s.Clone().ProcsUsed() != 2 || len(s.OnProc(0)) != 2 {
				t.Error("concurrent reads disagree")
			}
			if err := Validate(g, s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
