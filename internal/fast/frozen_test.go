package fast

import (
	"context"
	"errors"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// frozenMachine is a two-processor machine with two frozen nodes and two
// to place: a ran on processor 0 and finished at 5; b ran on a dead
// processor and finished at 3; c reads a (comm 2) and b (comm 4), and d
// reads c (comm 1). Processor 0 is free from 5 and processor 1 from 6.
func frozenMachine(t *testing.T) (c *dag.CSR, moves []dag.NodeID, ready []float64, proc []int, finish []float64) {
	t.Helper()
	const a, b, cn, d = 0, 1, 2, 3
	c, err := dag.FinishCSR([]float64{5, 3, 2, 1},
		[]int32{a, b, cn}, []int32{cn, cn, d}, []float64{2, 4, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, []dag.NodeID{cn, d}, []float64{5, 6}, []int{0, -1, 0, 0}, []float64{5, 3, 0, 0}
}

// TestScheduleFrozenPlacesAroundFrozenNodes checks phase 1 on the frozen
// machine. c's message from b, on a dead processor, is paid everywhere,
// so c starts at 7 on either processor and its parent a's processor 0
// wins the tie; d then joins c there.
func TestScheduleFrozenPlacesAroundFrozenNodes(t *testing.T) {
	c, moves, ready, proc, finish := frozenMachine(t)
	for _, opts := range []Options{{MaxSteps: -1}, {Seed: 3}} {
		s, err := New(opts).ScheduleFrozen(c, moves, ready, proc, finish)
		if err != nil {
			t.Fatal(err)
		}
		want := []sched.Placement{{Proc: 0, Start: 7, Finish: 9}, {Proc: 0, Start: 9, Finish: 10}}
		for i, n := range moves {
			if got := s.Of(n); got.Proc != want[i].Proc || got.Start != want[i].Start || got.Finish != want[i].Finish {
				t.Fatalf("%+v: node %d placed %+v, want %+v", opts, n, got, want[i])
			}
		}
		if s.Assigned(0) || s.Assigned(1) || s.Length() != 10 {
			t.Fatalf("%+v: frozen nodes assigned or length %v, want 10", opts, s.Length())
		}
	}
}

// TestScheduleFrozenCancelled checks that a cancelled context returns
// the phase-1 placement with the context's error, on two processors
// and on a single survivor, where the search has no move to try.
func TestScheduleFrozenCancelled(t *testing.T) {
	c, moves, ready, proc, finish := frozenMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ready := range [][]float64{ready, ready[:1]} {
		s, err := New(Options{Context: ctx}).ScheduleFrozen(c, moves, ready, proc, finish)
		if !errors.Is(err, context.Canceled) || s == nil {
			t.Fatalf("%d processors: schedule %v, error %v; want a schedule and context.Canceled", len(ready), s, err)
		}
		if got := s.Of(moves[1]); got.Finish != 10 {
			t.Fatalf("%d processors: d finishes at %v, want 10", len(ready), got.Finish)
		}
	}
}

// TestScheduleFrozenRejectsBadInput covers the input checks, the floor
// invariant among them: a frozen node must finish by its processor's
// ready time.
func TestScheduleFrozenRejectsBadInput(t *testing.T) {
	c, moves, ready, proc, finish := frozenMachine(t)
	f := Default()
	cases := map[string]func() error{
		"no moves": func() error {
			_, err := f.ScheduleFrozen(c, nil, ready, proc, finish)
			return err
		},
		"no processors": func() error {
			_, err := f.ScheduleFrozen(c, moves, nil, proc, finish)
			return err
		},
		"short frozen arrays": func() error {
			_, err := f.ScheduleFrozen(c, moves, ready, proc[:3], finish)
			return err
		},
		"repeated move": func() error {
			_, err := f.ScheduleFrozen(c, []dag.NodeID{2, 2}, ready, proc, finish)
			return err
		},
		"move out of range": func() error {
			_, err := f.ScheduleFrozen(c, []dag.NodeID{2, 4}, ready, proc, finish)
			return err
		},
		"child before parent": func() error {
			_, err := f.ScheduleFrozen(c, []dag.NodeID{3, 2}, ready, proc, finish)
			return err
		},
		"frozen after the floor": func() error {
			_, err := f.ScheduleFrozen(c, moves, []float64{4, 6}, proc, finish)
			return err
		},
		"processor out of range": func() error {
			_, err := f.ScheduleFrozen(c, moves, ready, []int{2, -1, 0, 0}, finish)
			return err
		},
	}
	for name, run := range cases {
		if run() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
