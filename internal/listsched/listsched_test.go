package listsched

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"fastsched/internal/dag"
)

func TestTimelineReadyTime(t *testing.T) {
	tl := &Timeline{}
	if tl.ReadyTime() != 0 {
		t.Fatal("empty timeline ready time != 0")
	}
	tl.Insert(0, 0, 3)
	tl.Insert(1, 5, 2)
	if tl.ReadyTime() != 7 {
		t.Fatalf("ReadyTime = %v", tl.ReadyTime())
	}
	if tl.Len() != 2 {
		t.Fatalf("Len = %d", tl.Len())
	}
	// A zero-length slot that starts a rounding error before the last
	// finish sorts after it; the ready time stays the latest finish.
	tl.Insert(2, 7-1e-15, 0)
	if tl.ReadyTime() != 7 {
		t.Fatalf("after a zero-length slot at 7-1e-15, ReadyTime = %v, want 7", tl.ReadyTime())
	}
}

func TestEarliestStartFindsGap(t *testing.T) {
	tl := &Timeline{}
	tl.Insert(0, 0, 2)
	tl.Insert(1, 10, 2)
	// gap [2,10): a task of duration 3 with dat 1 fits at 2
	if got := tl.EarliestStart(1, 3); got != 2 {
		t.Fatalf("EarliestStart = %v, want 2", got)
	}
	// dat inside the gap
	if got := tl.EarliestStart(4, 3); got != 4 {
		t.Fatalf("EarliestStart = %v, want 4", got)
	}
	// too long for the gap: goes after the last slot
	if got := tl.EarliestStart(1, 9); got != 12 {
		t.Fatalf("EarliestStart = %v, want 12", got)
	}
	// exact fit in gap
	if got := tl.EarliestStart(2, 8); got != 2 {
		t.Fatalf("EarliestStart exact = %v, want 2", got)
	}
}

func TestInsertKeepsOrderAndDetectsOverlap(t *testing.T) {
	tl := &Timeline{}
	tl.Insert(2, 6, 2)
	tl.Insert(0, 0, 2)
	tl.Insert(1, 3, 2)
	starts := []float64{}
	for _, s := range tl.slots {
		starts = append(starts, s.Start)
	}
	if !sort.Float64sAreSorted(starts) {
		t.Fatalf("slots unsorted: %v", starts)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlap with previous not caught")
			}
		}()
		tl.Insert(9, 1, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overlap with next not caught")
			}
		}()
		tl.Insert(9, 2.5, 2)
	}()
}

func TestMachineBounded(t *testing.T) {
	m := NewMachine(2)
	if m.NumProcs() != 2 {
		t.Fatal("bounded machine misconfigured")
	}
	if f := m.FreshProc(); f != 0 {
		t.Fatalf("FreshProc = %d", f)
	}
	m.Proc(0).Insert(0, 0, 1)
	if f := m.FreshProc(); f != 1 {
		t.Fatalf("FreshProc = %d", f)
	}
	m.Proc(1).Insert(1, 0, 1)
	if f := m.FreshProc(); f != -1 {
		t.Fatalf("FreshProc on full machine = %d", f)
	}
	if m.NumProcs() != 2 {
		t.Fatal("bounded machine grew")
	}
}

func TestMachineUnbounded(t *testing.T) {
	m := NewMachine(0)
	m.Proc(m.FreshProc()).Insert(0, 0, 1)
	f := m.FreshProc()
	if f != 1 {
		t.Fatalf("FreshProc = %d", f)
	}
	if m.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", m.NumProcs())
	}
}

// TestDATAndCandidates prices a join on each processor a list
// scheduler would consider for it: either parent's, and a third.
func TestDATAndCandidates(t *testing.T) {
	g := dag.New(3)
	a := g.AddNode("a", 2)
	b := g.AddNode("b", 2)
	c := g.AddNode("c", 1)
	g.MustAddEdge(a, c, 5)
	g.MustAddEdge(b, c, 1)
	proc := []int32{0, 1, -1}
	finish := []float64{2, 2, 0}
	d := DATOf(dag.BuildCSR(g), c, proc, finish)
	// on PE 0: a local (2), b remote (2+1=3) -> 3
	if got := d.On(0); got != 3 {
		t.Fatalf("DAT on 0 = %v", got)
	}
	// on PE 1: a remote (7), b local (2) -> 7
	if got := d.On(1); got != 7 {
		t.Fatalf("DAT on 1 = %v", got)
	}
	// on PE 2: both remote -> 7
	if got := d.On(2); got != 7 {
		t.Fatalf("DAT on 2 = %v", got)
	}
}

// Property: EarliestStart never returns a time before dat, and inserting
// at the returned time never panics (i.e. the slot really is free).
func TestEarliestStartInsertProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		tl := &Timeline{}
		for i := 0; i < 30; i++ {
			dat := float64(rng.Intn(50))
			dur := 0.5 + float64(rng.Intn(5))
			start := tl.EarliestStart(dat, dur)
			if start < dat-1e-12 {
				t.Fatalf("trial %d: start %v < dat %v", trial, start, dat)
			}
			tl.Insert(dag.NodeID(i), start, dur) // panics on overlap
		}
		// final timeline must be sorted and non-overlapping
		slots := tl.slots
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].Finish-1e-9 {
				t.Fatalf("trial %d: overlap after inserts", trial)
			}
		}
	}
}

func TestTryInsertReturnsTypedError(t *testing.T) {
	tl := &Timeline{}
	if err := tl.TryInsert(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := tl.TryInsert(1, 4, 2); err != nil {
		t.Fatal(err)
	}
	before := len(tl.slots)
	for _, bad := range []struct{ start, dur float64 }{
		{1, 1},   // inside slot 0
		{3, 2},   // straddles slot 1's start
		{0, 0.5}, // overlaps slot 0's head
	} {
		err := tl.TryInsert(9, bad.start, bad.dur)
		if !errors.Is(err, ErrOverlap) {
			t.Fatalf("insert at [%v,%v): want ErrOverlap, got %v", bad.start, bad.start+bad.dur, err)
		}
		if len(tl.slots) != before {
			t.Fatalf("failed insert mutated the timeline")
		}
	}
	// Touching boundaries is legal: [2,4) fits exactly between the slots.
	if err := tl.TryInsert(2, 2, 2); err != nil {
		t.Fatalf("boundary-touching insert rejected: %v", err)
	}
}
