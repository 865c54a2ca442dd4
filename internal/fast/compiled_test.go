package fast

import (
	"context"
	"math"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/workload"
)

// TestScheduleCompiledMatchesSchedule pins the serving-path contract in
// package: ScheduleCompiled and FindCompiled against a precompiled plan
// are bit-identical to Schedule on the raw graph, for the plain FAST,
// PFAST, and multi-start configurations. (The batch differential suite
// re-checks this across the whole registry.)
func TestScheduleCompiledMatchesSchedule(t *testing.T) {
	g, err := workload.Random(workload.RandomOpts{V: 60, Seed: 11, MeanInDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Seed: 1},
		{Seed: 1, Parallelism: 4},
		{Seed: 1, MultiStart: true, Parallelism: 3},
	} {
		s := New(opts)
		want, err := s.Schedule(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ScheduleCompiled(cg, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g.NumNodes(), want, got)
		got, err = s.FindCompiled(nil, cg, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g.NumNodes(), want, got)
	}
}

func assertSameSchedule(t *testing.T, nodes int, want, got *sched.Schedule) {
	t.Helper()
	if got.Length() != want.Length() {
		t.Fatalf("length = %v, want %v", got.Length(), want.Length())
	}
	for n := 0; n < nodes; n++ {
		if wp, gp := want.Of(dag.NodeID(n)), got.Of(dag.NodeID(n)); gp != wp {
			t.Fatalf("node %d: placement %+v, want %+v", n, gp, wp)
		}
	}
}

// TestScheduleCompiledEmptyGraph covers the empty-graph guard on the
// compiled entry point (plan.Compile itself rejects empty graphs, so
// the guard needs a hand-built CompiledGraph to trigger).
func TestScheduleCompiledEmptyGraph(t *testing.T) {
	if _, err := Default().ScheduleCompiled(&plan.CompiledGraph{CSR: dag.BuildCSR(dag.New(0))}, 2); err == nil {
		t.Fatal("want error for empty compiled graph")
	}
}

// TestInsertionOnCompactPlan: the insertion ablation reads only the
// plan's CSR, so a plan compiled from a CSR alone schedules exactly as
// one compiled from the graph. With the search on, insertion is
// rejected: the search's replay would re-time its placement without
// gaps.
func TestInsertionOnCompactPlan(t *testing.T) {
	g := example.Graph()
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := plan.CompileCompact(dag.BuildCSR(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	ins := New(Options{Insertion: true, MaxSteps: -1})
	want, err := ins.ScheduleCompiled(cg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ins.ScheduleCompiled(cc, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, g.NumNodes(), want, got)
	for _, steps := range []int{0, 8} {
		if _, err := New(Options{Insertion: true, MaxSteps: steps}).ScheduleCompiled(cc, 2); err == nil {
			t.Fatalf("insertion with MaxSteps %d accepted, want error", steps)
		}
	}
}

// TestPackageFind covers the package-level Find convenience wrapper.
func TestPackageFind(t *testing.T) {
	g := example.Graph()
	s, err := Find(context.Background(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

// TestWithBudget pins the copy semantics: the receiver is untouched,
// the copy carries the budget, and a negative duration clears it.
func TestWithBudget(t *testing.T) {
	base := Default()
	b := base.WithBudget(50 * time.Millisecond)
	if base.opts.Budget != 0 {
		t.Fatalf("receiver mutated: budget %v", base.opts.Budget)
	}
	if b.opts.Budget != 50*time.Millisecond {
		t.Fatalf("copy budget = %v", b.opts.Budget)
	}
	if c := b.WithBudget(-time.Second); c.opts.Budget != 0 {
		t.Fatalf("negative budget not cleared: %v", c.opts.Budget)
	}
}

// TestBudgetedParallelSearchRuns exercises the budget-mode cooperative
// path end to end: PFAST workers sharing one atomic incumbent bound.
// Budget results are wall-clock dependent, so only validity and the
// never-worse-than-initial invariant are asserted.
func TestBudgetedParallelSearchRuns(t *testing.T) {
	g, err := workload.Random(workload.RandomOpts{V: 80, Seed: 3, MeanInDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := New(Options{Seed: 1, MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Seed: 1, Parallelism: 4, Budget: 30 * time.Millisecond},
		{Seed: 1, MultiStart: true, Parallelism: 3, Budget: 30 * time.Millisecond},
	} {
		s, err := New(opts).Schedule(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatal(err)
		}
		if s.Length() > initial.Length()+1e-9 {
			t.Fatalf("budgeted search worsened: %v > %v", s.Length(), initial.Length())
		}
	}
}

// TestSharedBound pins the atomic CAS-min: updates only ever lower the
// bound, and the zero state is +Inf.
func TestSharedBound(t *testing.T) {
	b := newSharedBound()
	if !math.IsInf(b.load(), 1) {
		t.Fatalf("initial bound = %v, want +Inf", b.load())
	}
	b.update(10)
	b.update(12) // higher: ignored
	if got := b.load(); got != 10 {
		t.Fatalf("bound = %v, want 10", got)
	}
	b.update(7)
	if got := b.load(); got != 7 {
		t.Fatalf("bound = %v, want 7", got)
	}
}

// TestCheckpointInterval pins the O(p) snapshot spacing: the floor of
// 16 for small machines, p/4 beyond it.
func TestCheckpointInterval(t *testing.T) {
	for _, tc := range []struct{ procs, want int }{
		{1, 16}, {64, 16}, {65, 16}, {128, 32}, {1024, 256},
	} {
		if got := checkpointInterval(tc.procs); got != tc.want {
			t.Fatalf("checkpointInterval(%d) = %d, want %d", tc.procs, got, tc.want)
		}
	}
}
