package fast

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// oracleSearch is search with every replay run to the end of the list:
// the reference whose decisions the cutoff's early stops must not
// change. It records the same telemetry as search.
func oracleSearch(st *state, blocking []dag.NodeID, maxSteps int, rng *rand.Rand) {
	if len(blocking) == 0 || st.procs < 2 {
		st.evaluate()
		return
	}
	best := st.evaluate()
	for step := range maxSteps {
		n := blocking[rng.Intn(len(blocking))]
		p := rng.Intn(st.procs)
		if p == st.assign[n] {
			st.tele.skipped.Inc()
			continue
		}
		from := st.assign[n]
		st.tele.steps.Inc()
		cand := st.tryTransfer(n, p)
		accepted := cand < best-1e-12
		if accepted {
			best = cand
			st.tele.accepted.Inc()
		} else {
			st.revertTransfer()
			st.tele.reverted.Inc()
		}
		st.tele.record(step, n, from, p, cand, best, accepted, st.lastReplay)
	}
}

// oracleRun is serial FAST with opts on cg, searching with
// oracleSearch. It returns the schedule and the run's telemetry.
func oracleRun(cg *plan.CompiledGraph, procs int, opts Options) (*sched.Schedule, *obs.Registry, *obs.Trajectory) {
	if procs <= 0 {
		procs = cg.CSR.NumNodes()
	}
	reg, traj := obs.NewRegistry(), obs.NewTrajectory(0)
	st := acquireState(priorityList(cg, opts.Order), cg.CSR, procs, newTelemetry(reg, traj))
	defer st.release()
	st.initialReadyTime(0, nil)
	steps := opts.MaxSteps
	if steps == 0 {
		steps = DefaultMaxSteps
	}
	if steps > 0 {
		oracleSearch(st, cg.Blocking, steps, rand.New(rand.NewSource(opts.Seed)))
	}
	return st.buildSchedule(), reg, traj
}

// checkSerialMatchesOracle fails unless serial FAST with opts places
// every node of cg as oracleRun does, with the same step counters and
// the same trajectory, except for the candidate of a rejected move whose
// replay stopped: that lies between best - 1e-12 and the oracle's
// candidate. It returns the number of stopped replays.
func checkSerialMatchesOracle(t testing.TB, name string, cg *plan.CompiledGraph, procs int, opts Options) int64 {
	t.Helper()
	reg, traj := obs.NewRegistry(), obs.NewTrajectory(0)
	s := New(opts)
	s.Instrument(reg, traj)
	got, err := s.ScheduleCompiled(cg, procs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, oreg, otraj := oracleRun(cg, procs, opts)
	for n := range cg.CSR.NumNodes() {
		if g, w := got.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)); g != w {
			t.Fatalf("%s, procs %d, %+v: node %d placed %+v, full-replay oracle %+v", name, procs, opts, n, g, w)
		}
	}
	for _, c := range []string{"fast.search.steps_tried", "fast.search.accepted", "fast.search.reverted", "fast.search.same_proc_skips"} {
		if g, w := reg.Counter(c).Value(), oreg.Counter(c).Value(); g != w {
			t.Fatalf("%s, procs %d, %+v: %s %d, full-replay oracle %d", name, procs, opts, c, g, w)
		}
	}
	ge, we := traj.Events(), otraj.Events()
	if len(ge) != len(we) {
		t.Fatalf("%s, procs %d, %+v: %d step events, full-replay oracle %d", name, procs, opts, len(ge), len(we))
	}
	cutoffs := reg.Counter("fast.search.incumbent_cutoffs").Value()
	var stopped int64
	for i, w := range we {
		g := ge[i]
		cand := g.Candidate
		g.Candidate = w.Candidate
		if g != w {
			t.Fatalf("%s, procs %d, %+v: step event %+v, full-replay oracle %+v", name, procs, opts, ge[i], w)
		}
		if cand == w.Candidate {
			continue
		}
		stopped++
		if w.Accepted || cand > w.Candidate || cand < w.Best-1e-12 {
			t.Fatalf("%s, procs %d, %+v: step %d candidate %v, want in [%v, %v] from a stopped replay of a rejected move",
				name, procs, opts, w.Step, cand, w.Best-1e-12, w.Candidate)
		}
	}
	if stopped > cutoffs {
		t.Fatalf("%s, procs %d, %+v: %d candidates differ from the oracle's, but only %d replays stopped", name, procs, opts, stopped, cutoffs)
	}
	// Every journaled position is walked unless a replay stopped.
	walked := reg.Counter("fast.search.replay_walked").Value()
	journaled := int64(reg.Histogram("fast.search.replay_len", nil).Sum())
	if walked > journaled || (cutoffs == 0 && walked != journaled) {
		t.Fatalf("%s, procs %d, %+v: replay_walked %d against replay_len sum %d with %d stopped replays", name, procs, opts, walked, journaled, cutoffs)
	}
	return cutoffs
}

// TestSerialSearchMatchesFullReplayOracle holds serial FAST, whose
// replays stop once a move cannot be accepted, to oracleSearch, whose
// replays all run to the end: on the oracle corpus and random layered
// graphs, at procs 1, 2, 3, 4, 16 and unbounded, with MaxSteps 64 and
// 256 and three seeds, and on a near tie (checkNearTieKept).
func TestSerialSearchMatchesFullReplayOracle(t *testing.T) {
	type named struct {
		name string
		g    *dag.Graph
	}
	var graphs []named
	for _, inst := range schedtest.OracleCorpus() {
		graphs = append(graphs, named{"corpus/" + inst.Name, inst.Graph})
	}
	rng := rand.New(rand.NewSource(97))
	for i := range 4 {
		graphs = append(graphs, named{fmt.Sprintf("layered/%d", i), schedtest.RandomLayered(rng, 20+rng.Intn(60))})
	}
	var cutoffs int64
	for _, gr := range graphs {
		cg, err := plan.Compile(gr.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3, 4, 16, 0} {
			for _, steps := range []int{64, 256} {
				for seed := int64(1); seed <= 3; seed++ {
					cutoffs += checkSerialMatchesOracle(t, gr.name, cg, procs, Options{Seed: seed, MaxSteps: steps})
				}
			}
		}
	}
	if cutoffs == 0 {
		t.Fatal("no replay stopped early, so the comparison checked nothing")
	}
	checkNearTieKept(t)
}

// checkNearTieKept pins the cutoff's margin, which the graphs above
// cannot: their weights are integers, so every improvement is at least
// 1. A and X (length 1 each) share processor 0, and Y, 2 - 1.5e-12
// long, runs on processor 1; moving X to the idle processor 2 shortens
// the schedule by 1.5e-12, just over the 1e-12 an improvement must
// beat. The search must keep that move, as the full-replay oracle does,
// so no replay may stop below best - 1e-12.
func checkNearTieKept(t *testing.T) {
	t.Helper()
	g := dag.New(3)
	a := g.AddNode("A", 1)
	x := g.AddNode("X", 1)
	y := g.AddNode("Y", 2-1.5e-12)
	list := []dag.NodeID{a, x, y}
	run := func(search func(st *state, rng *rand.Rand)) *state {
		st := newState(g, list, 3)
		copy(st.assign, []int{0, 0, 1})
		search(st, rand.New(rand.NewSource(1)))
		return st
	}
	blocking := []dag.NodeID{x}
	want := run(func(st *state, rng *rand.Rand) { oracleSearch(st, blocking, 16, rng) })
	got := run(func(st *state, rng *rand.Rand) {
		if err := st.search(context.Background(), blocking, 16, 0, rng); err != nil {
			t.Fatal(err)
		}
	})
	if want.length != 2-1.5e-12 || want.assign[x] != 2 {
		t.Fatalf("oracle ends at length %v with X on %d; the near tie was never tried", want.length, want.assign[x])
	}
	if got.length != want.length || got.assign[x] != want.assign[x] {
		t.Fatalf("search ends at length %v with X on %d, oracle at %v with X on %d",
			got.length, got.assign[x], want.length, want.assign[x])
	}
}

// TestStrategiesOnSingleProcessorNoop: on one processor the search has
// no move to try, serially or in PFAST's and multi-start's starts, and
// every node runs back to back.
func TestStrategiesOnSingleProcessorNoop(t *testing.T) {
	g := example.Graph()
	for name, opts := range map[string]Options{
		"greedy":     {Seed: 1},
		"pfast":      {Seed: 1, Parallelism: 3},
		"multistart": {Seed: 1, Parallelism: 3, MultiStart: true},
	} {
		s, err := New(opts).Schedule(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != g.TotalWork() {
			t.Fatalf("%s on one processor: %v != %v", name, s.Length(), g.TotalWork())
		}
	}
}

func TestMultiStartValidDeterministicAndNoWorse(t *testing.T) {
	g := example.Graph()
	opt := Options{Parallelism: 6, MultiStart: true, Seed: 2, MaxSteps: 128}
	a, err := New(opt).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	b, _ := New(opt).Schedule(g, 4)
	if a.Length() != b.Length() {
		t.Fatalf("multi-start nondeterministic: %v vs %v", a.Length(), b.Length())
	}
	// It explores a superset of plain PFAST's starting points with the
	// same per-worker budget, so it must not be worse than the CPN-
	// dominate-only worker it contains (worker 0).
	single, err := New(Options{Seed: 2, MaxSteps: 128}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Length() > single.Length()+1e-9 {
		t.Fatalf("multi-start (%v) worse than its own worker 0 (%v)", a.Length(), single.Length())
	}
}

func TestMultiStartOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g := schedtest.RandomLayered(rng, 20+rng.Intn(40))
		s, err := New(Options{Parallelism: 3, MultiStart: true, Seed: int64(trial), MaxSteps: 32}).Schedule(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBudgetSearchAnytime(t *testing.T) {
	g := example.Graph()
	init, err := New(Options{MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Seed: 1, Budget: 20 * time.Millisecond}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Length() > init.Length()+1e-9 {
		t.Fatalf("budget search worsened %v -> %v", init.Length(), s.Length())
	}
}

func TestBudgetSearchRespectsDeadline(t *testing.T) {
	g := schedtest.RandomLayered(rand.New(rand.NewSource(2)), 60)
	begin := time.Now()
	if _, err := New(Options{Seed: 1, Budget: 30 * time.Millisecond}).Schedule(g, 8); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("budgeted search ran %v, far beyond its 30ms budget", elapsed)
	}
}
