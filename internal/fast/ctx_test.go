package fast

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fastsched/internal/sched"
)

// TestFindDeadlineReturnsPartialBest is the PR's acceptance criterion:
// a Find call with a 50ms deadline on a heavy budgeted search returns a
// valid best-so-far schedule plus context.DeadlineExceeded, within 2×
// the deadline.
func TestFindDeadlineReturnsPartialBest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomLayeredGraph(rng, 300)
	const deadline = 50 * time.Millisecond
	// A wall-clock budget far beyond the deadline: without cancellation
	// this search would run for 10 seconds.
	f := New(Options{Seed: 1, Budget: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	s, err := f.Find(ctx, g, 8)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if s == nil {
		t.Fatal("deadline dropped the best-so-far schedule")
	}
	if elapsed > 2*deadline {
		t.Fatalf("Find took %v, more than 2× the %v deadline", elapsed, deadline)
	}
	if verr := sched.Validate(g, s); verr != nil {
		t.Fatalf("partial-best schedule invalid: %v", verr)
	}
}

// TestFindCancelledAllStrategies drives a pre-cancelled context through
// the serial search, with steps or a budget, and the PFAST/multi-start
// workers: each must stop at its first check, return its best-so-far
// (phase-1) schedule, and report the context error. A pre-cancelled
// context makes the test deterministic, where a timed deadline could
// race a search that finishes first.
func TestFindCancelledAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomLayeredGraph(rng, 200)
	cases := map[string]Options{
		"greedy":     {Seed: 1, MaxSteps: 1 << 30},
		"budget":     {Seed: 1, Budget: 10 * time.Second},
		"pfast":      {Seed: 1, MaxSteps: 1 << 30, Parallelism: 4},
		"multistart": {Seed: 1, MaxSteps: 1 << 30, Parallelism: 4, MultiStart: true},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s, err := New(opts).Find(ctx, g, 8)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want Canceled, got %v", err)
			}
			if s == nil {
				t.Fatal("no best-so-far schedule")
			}
			if verr := sched.Validate(g, s); verr != nil {
				t.Fatalf("partial schedule invalid: %v", verr)
			}
		})
	}
}

// lateTimerCtx has a deadline in the past but reports no error, like a
// deadline context whose cancelling timer has not run yet.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestFindStopsAtPastDeadlineBeforeTimer: every search stops at its
// first check once the deadline has passed, without waiting for the
// context's timer, and returns its best-so-far schedule with
// DeadlineExceeded.
func TestFindStopsAtPastDeadlineBeforeTimer(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomLayeredGraph(rng, 200)
	cases := map[string]Options{
		"greedy":     {Seed: 1, MaxSteps: 1 << 30},
		"budget":     {Seed: 1, Budget: 10 * time.Second},
		"pfast":      {Seed: 1, MaxSteps: 1 << 30, Parallelism: 4},
		"multistart": {Seed: 1, MaxSteps: 1 << 30, Parallelism: 4, MultiStart: true},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := New(opts).Find(lateTimerCtx{context.Background()}, g, 8)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want DeadlineExceeded, got %v", err)
			}
			if s == nil {
				t.Fatal("no best-so-far schedule")
			}
			if verr := sched.Validate(g, s); verr != nil {
				t.Fatalf("partial schedule invalid: %v", verr)
			}
		})
	}
}

// TestOptionsContextFlowsThroughSchedule checks the sched.Scheduler
// path: a cancelled Options.Context surfaces through plain Schedule.
func TestOptionsContextFlowsThroughSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomLayeredGraph(rng, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(Options{Seed: 1, Context: ctx}).Schedule(g, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if s == nil {
		t.Fatal("cancelled Schedule dropped the phase-1 schedule")
	}
	if verr := sched.Validate(g, s); verr != nil {
		t.Fatalf("phase-1 schedule invalid: %v", verr)
	}
}

// TestNilContextMatchesBackground ensures the ctx plumbing did not
// perturb the fixed-seed determinism of the default configuration.
func TestNilContextMatchesBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := randomLayeredGraph(rng, 150)
	s1, err := Default().Schedule(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Default().Find(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Length() != s2.Length() {
		t.Fatalf("Schedule %v != Find %v", s1.Length(), s2.Length())
	}
}

// TestPFASTWorkerPanicSurfacesAsError injects a panic into one PFAST
// worker via the debug hook: Schedule must return an error naming the
// worker, not kill the process.
func TestPFASTWorkerPanicSurfacesAsError(t *testing.T) {
	defer func(old int) { debugPanicWorker = old }(debugPanicWorker)
	debugPanicWorker = 1
	rng := rand.New(rand.NewSource(59))
	g := randomLayeredGraph(rng, 80)
	for name, opts := range map[string]Options{
		"pfast":      {Seed: 1, Parallelism: 3},
		"multistart": {Seed: 1, Parallelism: 3, MultiStart: true},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := New(opts).Schedule(g, 4)
			if err == nil {
				t.Fatal("worker panic vanished")
			}
			if !strings.Contains(err.Error(), "worker 1 panicked") {
				t.Fatalf("unexpected error: %v", err)
			}
			if s != nil {
				t.Fatal("panicked run still returned a schedule")
			}
		})
	}
}
