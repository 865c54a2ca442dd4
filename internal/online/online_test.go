package online

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/sim"
)

// singleNode returns a one-task graph of the given weight.
func singleNode(w float64) *dag.Graph {
	g := dag.New(0)
	g.AddNode("", w)
	return g
}

// cyclic returns a two-node graph with a cycle (invalid).
func cyclic() *dag.Graph {
	g := dag.New(0)
	a := g.AddNode("", 1)
	b := g.AddNode("", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, a, 1)
	return g
}

func mustRun(t *testing.T, jobs []Job, opts Options) *Report {
	t.Helper()
	rep, err := Run(jobs, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestRunValidation(t *testing.T) {
	ok := Job{ID: "a", Graph: singleNode(1)}
	cases := []struct {
		name string
		jobs []Job
		opts Options
		want error
	}{
		{"no procs", []Job{ok}, Options{}, ErrBadProcs},
		{"bad policy", []Job{ok}, Options{Procs: 1, Policy: "lifo"}, ErrBadPolicy},
		{"bad algorithm", []Job{ok}, Options{Procs: 1, Algorithm: "quantum"}, ErrBadAlgorithm},
		{"nil graph", []Job{{ID: "a"}}, Options{Procs: 1}, ErrNilGraph},
		{"empty graph", []Job{{ID: "a", Graph: dag.New(0)}}, Options{Procs: 1}, ErrEmptyGraph},
		{"empty id", []Job{{Graph: singleNode(1)}}, Options{Procs: 1}, ErrBadJobID},
		{"duplicate id", []Job{ok, {ID: "a", Graph: singleNode(2)}}, Options{Procs: 1}, ErrDuplicateID},
		{"negative arrival", []Job{{ID: "a", Graph: singleNode(1), Arrival: -1}}, Options{Procs: 1}, ErrBadArrival},
		{"nan arrival", []Job{{ID: "a", Graph: singleNode(1), Arrival: math.NaN()}}, Options{Procs: 1}, ErrBadArrival},
		{"negative deadline", []Job{{ID: "a", Graph: singleNode(1), Deadline: -3}}, Options{Procs: 1}, ErrBadDeadline},
		{"inf deadline", []Job{{ID: "a", Graph: singleNode(1), Deadline: math.Inf(1)}}, Options{Procs: 1}, ErrBadDeadline},
		{"deadline before arrival", []Job{{ID: "a", Graph: singleNode(1), Arrival: 5, Deadline: 4}}, Options{Procs: 1}, ErrBadDeadline},
		{"deadline at arrival", []Job{{ID: "a", Graph: singleNode(1), Arrival: 5, Deadline: 5}}, Options{Procs: 1}, ErrBadDeadline},
		{"negative weight", []Job{{ID: "a", Graph: singleNode(1), Weight: -2}}, Options{Procs: 1}, ErrBadWeight},
		{"cyclic graph", []Job{{ID: "a", Graph: cyclic()}}, Options{Procs: 1}, ErrBadGraph},
		{"negative node weight", []Job{{ID: "a", Graph: singleNode(-1)}}, Options{Procs: 1}, ErrBadGraph},
		{"msg loss fault", []Job{ok}, Options{Procs: 1, Faults: &sim.FaultPlan{MsgLoss: 0.5}}, ErrFaultUnsupported},
		{"jitter fault", []Job{ok}, Options{Procs: 1, Faults: &sim.FaultPlan{Jitter: 0.1}}, ErrFaultUnsupported},
		{"invalid fault plan", []Job{ok}, Options{Procs: 1, Faults: &sim.FaultPlan{MsgLoss: 2}}, ErrFaultUnsupported},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.jobs, tc.opts); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestSoloMatchesOffline: a lone job on an idle machine is delegated
// whole to the registry algorithm, so its makespan equals the offline
// schedule bit-for-bit and its trace is marked solo.
func TestSoloMatchesOffline(t *testing.T) {
	g := schedtest.RandomLayered(rand.New(rand.NewSource(11)), 60)
	// The oracle is the registry algorithm through the same compiled
	// dispatch the offline batch path uses.
	s, err := casch.NewScheduler("fast", 0)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	off, err := casch.ScheduleCompiled(context.Background(), s, cg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, []Job{{ID: "j", Graph: g}}, Options{Procs: 4, Algorithm: "fast"})
	r := rep.Results[0]
	if !r.Solo {
		t.Fatal("lone job at t=0 not delegated")
	}
	if r.Finish != off.Length() {
		t.Fatalf("online makespan %v != offline %v", r.Finish, off.Length())
	}
	if rep.SoloPlans != 1 || rep.Makespan != off.Length() {
		t.Fatalf("report: solo=%d makespan=%v", rep.SoloPlans, rep.Makespan)
	}
	if err := sched.Validate(g, r.Schedule); err != nil {
		t.Fatal(err)
	}

	// The same job arriving later gets the same schedule shifted.
	rep2 := mustRun(t, []Job{{ID: "j", Graph: g, Arrival: 7}}, Options{Procs: 4, Algorithm: "fast"})
	if got := rep2.Results[0].Finish; got != off.Length()+7 {
		t.Fatalf("shifted solo finish %v != %v", got, off.Length()+7)
	}
	if rep2.Results[0].Start < 7 {
		t.Fatalf("job started %v before its arrival 7", rep2.Results[0].Start)
	}
}

// checkMachine asserts machine-level exclusivity: across ALL jobs, no
// two positive-width tasks overlap on the same processor.
func checkMachine(t *testing.T, jobs []Job, rep *Report, procs int) {
	t.Helper()
	type iv struct {
		job           string
		node          int
		start, finish float64
	}
	perProc := make([][]iv, procs)
	for i, r := range rep.Results {
		if r.Schedule == nil {
			continue
		}
		g := jobs[i].Graph
		for n := 0; n < g.NumNodes(); n++ {
			pl := r.Schedule.Of(dag.NodeID(n))
			if pl.Finish-pl.Start <= 1e-9 {
				continue
			}
			perProc[pl.Proc] = append(perProc[pl.Proc], iv{r.ID, n, pl.Start, pl.Finish})
		}
	}
	for p := range perProc {
		list := perProc[p]
		for i := range list {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.start < b.finish-1e-9 && b.start < a.finish-1e-9 {
					t.Fatalf("PE %d: %s/%d [%v,%v) overlaps %s/%d [%v,%v)",
						p, a.job, a.node, a.start, a.finish, b.job, b.node, b.start, b.finish)
				}
			}
		}
	}
}

// TestDynamicMultiJob drives overlapping jobs through the dynamic
// dispatcher and checks every realized schedule plus machine-level
// exclusivity.
func TestDynamicMultiJob(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jobs := []Job{
		{ID: "a", Tenant: "t0", Graph: schedtest.RandomLayered(rng, 30), Arrival: 0},
		{ID: "b", Tenant: "t1", Graph: schedtest.ForkJoin(6, 2), Arrival: 3, Deadline: 500},
		{ID: "c", Tenant: "t0", Graph: schedtest.Chain(8, 1), Arrival: 5},
		{ID: "d", Tenant: "t1", Graph: schedtest.RandomLayered(rng, 20), Arrival: 5},
	}
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			rep := mustRun(t, jobs, Options{Procs: 3, Policy: policy, Algorithm: "none"})
			if rep.Completed != len(jobs) {
				t.Fatalf("completed %d of %d", rep.Completed, len(jobs))
			}
			for i, r := range rep.Results {
				if !r.Completed || r.Schedule == nil {
					t.Fatalf("job %s not completed", r.ID)
				}
				if err := sched.Validate(jobs[i].Graph, r.Schedule); err != nil {
					t.Fatalf("job %s: %v", r.ID, err)
				}
				if r.Start < r.Arrival {
					t.Fatalf("job %s started %v before arrival %v", r.ID, r.Start, r.Arrival)
				}
				if r.Solo {
					t.Fatalf("job %s marked solo with delegation disabled", r.ID)
				}
			}
			checkMachine(t, jobs, rep, rep.Procs)
			if rep.Fairness <= 0 || rep.Fairness > 1+1e-12 {
				t.Fatalf("fairness %v outside (0,1]", rep.Fairness)
			}
			if len(rep.Tenants) != 2 || rep.Tenants[0].Tenant != "t0" {
				t.Fatalf("tenant stats wrong: %+v", rep.Tenants)
			}
		})
	}
}

// TestPolicyOrdering: on one processor, a short deadline job beats a
// long deadline-free one under edf and fast, but waits under fifo.
func TestPolicyOrdering(t *testing.T) {
	jobs := []Job{
		{ID: "long", Graph: singleNode(10), Arrival: 0},
		{ID: "urgent", Graph: singleNode(1), Arrival: 0, Deadline: 2},
	}
	for policy, wantMiss := range map[string]bool{"fifo": true, "edf": false, "fast": false} {
		rep := mustRun(t, jobs, Options{Procs: 1, Policy: policy, Algorithm: "none"})
		urgent := rep.Results[1]
		if urgent.Missed != wantMiss {
			t.Errorf("%s: urgent missed=%v want %v (finish %v)", policy, urgent.Missed, wantMiss, urgent.Finish)
		}
		if policy == "fifo" {
			if rep.Missed != 1 || urgent.Tardiness != 9 {
				t.Errorf("fifo: missed=%d tardiness=%v, want 1 and 9", rep.Missed, urgent.Tardiness)
			}
		}
	}
}

// TestZeroWeightTasks: zero-width tasks occupy no processor time and
// never wedge the machine.
func TestZeroWeightTasks(t *testing.T) {
	g := dag.New(0)
	a := g.AddNode("", 0)
	b := g.AddNode("", 2)
	c := g.AddNode("", 0)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	solo := mustRun(t, []Job{{ID: "z", Graph: g}}, Options{Procs: 1, Algorithm: "none"})
	if solo.Results[0].Finish != 2 {
		t.Fatalf("zero-capped chain finished at %v, want 2", solo.Results[0].Finish)
	}
	// With a competitor the dispatcher interleaves work-conservingly:
	// the zero-width head runs at t=0, the competitor grabs the
	// processor, the chain body follows it.
	rep := mustRun(t, []Job{
		{ID: "z", Graph: g},
		{ID: "w", Graph: singleNode(3)},
	}, Options{Procs: 1, Algorithm: "none"})
	if rep.Completed != 2 {
		t.Fatalf("completed %d of 2", rep.Completed)
	}
	if rep.Results[0].Finish != 5 || rep.Results[1].Finish != 3 {
		t.Fatalf("finishes %v and %v, want 5 and 3", rep.Results[0].Finish, rep.Results[1].Finish)
	}
	checkMachine(t, []Job{{ID: "z", Graph: g}, {ID: "w", Graph: singleNode(3)}}, rep, 1)
}

// TestCrashRepair: a mid-stream crash tears down the dead processor,
// triggers a resched repair, and the realized schedules stay legal.
func TestCrashRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	jobs := []Job{
		{ID: "a", Graph: schedtest.RandomLayered(rng, 50), Arrival: 0},
		{ID: "b", Graph: schedtest.RandomLayered(rng, 40), Arrival: 2},
	}
	base := mustRun(t, jobs, Options{Procs: 4, Algorithm: "none"})
	crashT := 0.4 * base.Makespan
	const deadProc = 1

	reg := obs.NewRegistry()
	rep, err := Run(jobs, Options{
		Procs:     4,
		Algorithm: "none",
		Faults:    &sim.FaultPlan{Crashes: []sim.Crash{{Proc: deadProc, Time: crashT}}},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatalf("Run with crash: %v", err)
	}
	if rep.Crashes != 1 || rep.Replans == 0 {
		t.Fatalf("crashes=%d replans=%d, want 1 and >0", rep.Crashes, rep.Replans)
	}
	if rep.Makespan < base.Makespan {
		t.Fatalf("losing a processor shortened the makespan: %v < %v", rep.Makespan, base.Makespan)
	}
	for i, r := range rep.Results {
		if !r.Completed {
			t.Fatalf("job %s dropped after crash", r.ID)
		}
		if err := sched.Validate(jobs[i].Graph, r.Schedule); err != nil {
			t.Fatalf("job %s after repair: %v", r.ID, err)
		}
		g := jobs[i].Graph
		for n := 0; n < g.NumNodes(); n++ {
			pl := r.Schedule.Of(dag.NodeID(n))
			if pl.Proc == deadProc && pl.Finish > crashT+1e-9 {
				t.Fatalf("job %s node %d finishes at %v on PE %d, dead since %v", r.ID, n, pl.Finish, deadProc, crashT)
			}
		}
	}
	checkMachine(t, jobs, rep, rep.Procs)
	if got := reg.Counter("online.crashes").Value(); got != 1 {
		t.Fatalf("online.crashes metric = %d", got)
	}
	if got := reg.Counter("online.replans").Value(); got != int64(rep.Replans) {
		t.Fatalf("online.replans metric = %d, report says %d", got, rep.Replans)
	}
	if got := reg.Counter("resched.repairs").Value(); got != int64(rep.Replans) {
		t.Fatalf("resched.repairs metric = %d, report says %d replans", got, rep.Replans)
	}
}

// TestCrashNoops: crashes on processors outside the machine are
// no-ops, and a crash before any work exists kills the processor but
// triggers no repair.
func TestCrashNoops(t *testing.T) {
	rep := mustRun(t, []Job{{ID: "a", Graph: schedtest.Chain(5, 1), Arrival: 10}}, Options{
		Procs:     2,
		Algorithm: "none",
		Faults: &sim.FaultPlan{Crashes: []sim.Crash{
			{Proc: 99, Time: 1},
			{Proc: 0, Time: 2},
			{Proc: 0, Time: 3}, // already dead: no-op
		}},
	})
	if rep.Replans != 0 || rep.Completed != 1 {
		t.Fatalf("idle crashes caused replans=%d completed=%d", rep.Replans, rep.Completed)
	}
	// Everything ran on the survivor.
	s := rep.Results[0].Schedule
	for n := 0; n < 5; n++ {
		if pl := s.Of(dag.NodeID(n)); pl.Proc != 1 {
			t.Fatalf("node %d placed on dead PE %d", n, pl.Proc)
		}
	}
}

// TestAllProcessorsDead: killing the whole machine mid-run surfaces
// ErrAllProcessorsDead with a partial report, and unfinished deadline
// jobs count as missed.
func TestAllProcessorsDead(t *testing.T) {
	jobs := []Job{
		{ID: "a", Graph: schedtest.Chain(10, 0), Arrival: 0, Deadline: 100},
		{ID: "b", Graph: singleNode(1), Arrival: 50},
	}
	rep, err := Run(jobs, Options{
		Procs:     2,
		Algorithm: "none",
		Faults: &sim.FaultPlan{Crashes: []sim.Crash{
			{Proc: 0, Time: 2.5},
			{Proc: 1, Time: 2.5},
		}},
	})
	if !errors.Is(err, ErrAllProcessorsDead) {
		t.Fatalf("want ErrAllProcessorsDead, got %v", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	a := rep.Results[0]
	if a.Completed || !a.Missed {
		t.Fatalf("dead-machine job: completed=%v missed=%v", a.Completed, a.Missed)
	}
	if b := rep.Results[1]; b.Completed {
		t.Fatalf("job arriving after machine death completed: %+v", b)
	}
	if rep.Completed != 0 || rep.Missed != 1 {
		t.Fatalf("aggregate completed=%d missed=%d", rep.Completed, rep.Missed)
	}
}

// TestCrashDuringSoloPlan: a crash invalidates a delegated whole-DAG
// plan; the engine aborts in-flight work, replans onto survivors, and
// the job still completes legally.
func TestCrashDuringSoloPlan(t *testing.T) {
	g := schedtest.RandomLayered(rand.New(rand.NewSource(21)), 60)
	base := mustRun(t, []Job{{ID: "j", Graph: g}}, Options{Procs: 4})
	if !base.Results[0].Solo {
		t.Fatal("baseline not delegated")
	}
	crashT := 0.3 * base.Makespan
	rep, err := Run([]Job{{ID: "j", Graph: g}}, Options{
		Procs:  4,
		Faults: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 0, Time: crashT}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if !r.Completed || r.Replans == 0 {
		t.Fatalf("completed=%v replans=%d", r.Completed, r.Replans)
	}
	if err := sched.Validate(g, r.Schedule); err != nil {
		t.Fatal(err)
	}
	if r.Aborted == 0 && rep.Aborted != r.Aborted {
		t.Fatalf("abort accounting inconsistent: job %d, report %d", r.Aborted, rep.Aborted)
	}
}

// TestDeterministicTrace: the same workload and seed produce a
// byte-identical JSONL trace, including under crashes and repairs.
func TestDeterministicTrace(t *testing.T) {
	trace := func() []byte {
		rng := rand.New(rand.NewSource(5))
		jobs := []Job{
			{ID: "a", Tenant: "x", Graph: schedtest.RandomLayered(rng, 40), Arrival: 0, Deadline: 300},
			{ID: "b", Tenant: "y", Graph: schedtest.RandomLayered(rng, 30), Arrival: 4},
			{ID: "c", Tenant: "x", Graph: schedtest.ForkJoin(5, 1), Arrival: 8, Deadline: 90},
		}
		rep, err := Run(jobs, Options{
			Procs:  3,
			Policy: "fast",
			Seed:   42,
			Faults: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 2, Time: 20}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := trace()
	for i := 0; i < 3; i++ {
		if got := trace(); !bytes.Equal(first, got) {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, first, got)
		}
	}
}

// TestWriteJSONLShape: one valid JSON object per job line, then an
// aggregate record.
func TestWriteJSONLShape(t *testing.T) {
	rep := mustRun(t, []Job{
		{ID: "a", Graph: singleNode(1), Deadline: 5},
		{ID: "b", Graph: singleNode(2), Arrival: 1},
	}, Options{Procs: 2})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	for i, line := range lines[:2] {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec["job"] != rep.Results[i].ID {
			t.Fatalf("line %d names job %v", i, rec["job"])
		}
	}
	var tail struct {
		Report *Report `json:"report"`
	}
	if err := json.Unmarshal(lines[2], &tail); err != nil || tail.Report == nil {
		t.Fatalf("summary line: %v (%s)", err, lines[2])
	}
	if tail.Report.Jobs != 2 {
		t.Fatalf("summary jobs=%d", tail.Report.Jobs)
	}
}
