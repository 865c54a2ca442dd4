package fast

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/workload"
)

// teleSearchState builds a mid-size search state with phase 1 done.
func teleSearchState(t *testing.T, v, procs int) (*state, []dag.NodeID) {
	t.Helper()
	g, err := workload.Random(workload.RandomOpts{V: v, Seed: 7, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, cg.CPNDominate, procs)
	st.initialReadyTime(0, nil)
	st.evaluate()
	return st, cg.Blocking
}

// TestNilTelemetryAllocationFree asserts the acceptance bound of the
// obs wiring: with no sink attached (the default), the search hot path
// — candidate evaluation, revert, and whole greedy search runs — does
// not allocate. Every telemetry touch point must stay a nil-check.
func TestNilTelemetryAllocationFree(t *testing.T) {
	st, blocking := teleSearchState(t, 300, 16)
	if len(blocking) == 0 {
		t.Fatal("no blocking nodes")
	}
	n := blocking[0]
	p := (st.assign[n] + 1) % st.procs

	if avg := testing.AllocsPerRun(50, func() {
		st.tryCandidate(n, p, math.Inf(1))
		st.revertTransfer()
	}); avg != 0 {
		t.Errorf("tryCandidate+revertTransfer with nil telemetry: %v allocs/run, want 0", avg)
	}

	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	if avg := testing.AllocsPerRun(10, func() {
		if err := st.search(ctx, blocking, 32, 0, rng); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("greedy search with nil telemetry: %v allocs/run, want 0", avg)
	}
}

// TestSearchTelemetryInvariants pins the accounting of the serial
// greedy search: every one of the MAXSTEP draws is either a
// same-processor skip or a tried step, every tried step is either
// accepted or reverted, the trajectory records exactly the tried
// steps, and the final-makespan gauge matches the returned schedule.
func TestSearchTelemetryInvariants(t *testing.T) {
	g, err := workload.Random(workload.RandomOpts{V: 400, Seed: 11, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	traj := obs.NewTrajectory(0)
	s := New(Options{Seed: 1})
	s.Instrument(reg, traj)
	out, err := s.Schedule(g, 16)
	if err != nil {
		t.Fatal(err)
	}

	steps := reg.Counter("fast.search.steps_tried").Value()
	skips := reg.Counter("fast.search.same_proc_skips").Value()
	accepted := reg.Counter("fast.search.accepted").Value()
	reverted := reg.Counter("fast.search.reverted").Value()

	if steps+skips != DefaultMaxSteps {
		t.Errorf("steps(%d) + skips(%d) = %d, want MAXSTEP %d", steps, skips, steps+skips, DefaultMaxSteps)
	}
	if accepted+reverted != steps {
		t.Errorf("accepted(%d) + reverted(%d) != steps_tried(%d)", accepted, reverted, steps)
	}
	if traj.Len() != int(steps) {
		t.Errorf("trajectory has %d events, want one per tried step (%d)", traj.Len(), steps)
	}
	var trajAccepted int64
	for _, e := range traj.Events() {
		if e.Accepted {
			trajAccepted++
		}
		if e.From == e.To {
			t.Errorf("trajectory event records a same-processor transfer: %+v", e)
		}
	}
	if trajAccepted != accepted {
		t.Errorf("trajectory shows %d accepted, counter says %d", trajAccepted, accepted)
	}
	if replays := reg.Histogram("fast.search.replay_len", nil).Count(); replays != steps {
		t.Errorf("replay_len observed %d times, want %d", replays, steps)
	}
	if got := reg.Gauge("fast.final_makespan").Value(); got != out.Length() {
		t.Errorf("final_makespan gauge %v != schedule length %v", got, out.Length())
	}
	initial := reg.Gauge("fast.initial_makespan").Value()
	if out.Length() > initial {
		t.Errorf("final %v worse than initial %v", out.Length(), initial)
	}
	if reg.Timer("fast.phase1_ns").Count() != 1 || reg.Timer("fast.search_ns").Count() != 1 {
		t.Error("phase timers not observed exactly once")
	}
}

// TestPFASTTelemetryAggregation exercises the shared atomic counters
// under real worker concurrency (this test is part of the -race run):
// eight PFAST workers search concurrently and their per-step counts
// must aggregate exactly.
func TestPFASTTelemetryAggregation(t *testing.T) {
	const workers = 8
	g, err := workload.Random(workload.RandomOpts{V: 400, Seed: 11, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	traj := obs.NewTrajectory(0)
	s := New(Options{Seed: 1, Parallelism: workers})
	s.Instrument(reg, traj)
	out, err := s.Schedule(g, 16)
	if err != nil {
		t.Fatal(err)
	}

	steps := reg.Counter("fast.search.steps_tried").Value()
	skips := reg.Counter("fast.search.same_proc_skips").Value()
	accepted := reg.Counter("fast.search.accepted").Value()
	reverted := reg.Counter("fast.search.reverted").Value()

	if steps+skips != workers*DefaultMaxSteps {
		t.Errorf("steps(%d) + skips(%d) = %d, want %d across %d workers",
			steps, skips, steps+skips, workers*DefaultMaxSteps, workers)
	}
	if accepted+reverted != steps {
		t.Errorf("accepted(%d) + reverted(%d) != steps_tried(%d)", accepted, reverted, steps)
	}
	if got := reg.Counter("fast.search.workers").Value(); got != workers {
		t.Errorf("workers counter %d, want %d", got, workers)
	}
	if got := reg.Histogram("fast.search.worker_final_len", nil).Count(); got != workers {
		t.Errorf("worker_final_len observed %d times, want %d", got, workers)
	}
	if traj.Len()+traj.Dropped() != int(steps) {
		t.Errorf("trajectory %d events + %d dropped != %d tried steps", traj.Len(), traj.Dropped(), steps)
	}
	seen := make(map[int]bool)
	for _, e := range traj.Events() {
		seen[e.Worker] = true
		if e.Worker < 0 || e.Worker >= workers {
			t.Fatalf("event from worker %d, want [0,%d)", e.Worker, workers)
		}
	}
	if len(seen) < 2 {
		t.Errorf("trajectory events from %d workers, want several", len(seen))
	}
	if got := reg.Gauge("fast.final_makespan").Value(); got != out.Length() {
		t.Errorf("final_makespan gauge %v != schedule length %v", got, out.Length())
	}
}
