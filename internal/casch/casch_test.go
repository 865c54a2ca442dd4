package casch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/fast"
	"fastsched/internal/plan"
	"fastsched/internal/sim"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

func TestRunPipeline(t *testing.T) {
	g := example.Graph()
	s, err := NewScheduler("fast", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(g, s, 4, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "FAST" || r.V != 9 || r.E != 14 {
		t.Fatalf("result = %+v", r)
	}
	if r.ExecTime <= 0 || r.ExecTime > r.ScheduleLength+1e-9 {
		t.Fatalf("exec %v vs schedule %v", r.ExecTime, r.ScheduleLength)
	}
	if r.ProcsUsed < 1 || r.ProcsUsed > 4 {
		t.Fatalf("procs used = %d", r.ProcsUsed)
	}
	if r.Speedup <= 0 {
		t.Fatalf("speedup = %v", r.Speedup)
	}
	if r.SchedulingTime < 0 {
		t.Fatal("negative scheduling time")
	}
}

func TestRunWithMachineEffects(t *testing.T) {
	g, err := workload.GaussElim(4, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgorithmNames() {
		if name == "opt" {
			continue // exponential on this 20-task instance; has its own tests
		}
		s, err := NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(g, s, 4, sim.Config{Contention: true, Perturb: 0.1, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.ExecTime <= 0 {
			t.Fatalf("%s: exec time %v", name, r.ExecTime)
		}
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := NewScheduler("hype", 0); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
}

func TestAlgorithmNamesSortedAndComplete(t *testing.T) {
	names := AlgorithmNames()
	if len(names) != 18 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted: %v", names)
		}
	}
	for _, n := range names {
		if _, err := NewScheduler(n, 0); err != nil {
			t.Fatalf("registered name %q fails: %v", n, err)
		}
	}
}

func TestPaperSchedulersRowOrder(t *testing.T) {
	want := []string{"FAST", "DSC", "MD", "ETF", "DLS"}
	scheds := PaperSchedulers(1)
	if len(scheds) != len(want) {
		t.Fatalf("%d schedulers", len(scheds))
	}
	for i, s := range scheds {
		if s.Name() != want[i] {
			t.Fatalf("row %d = %s, want %s", i, s.Name(), want[i])
		}
	}
}

// TestScheduleCompiledMatchesSchedule pins the one dispatch function:
// for every registry algorithm, scheduling the compiled plan under a
// live context or a nil one equals s.Schedule on the graph node for
// node.
func TestScheduleCompiledMatchesSchedule(t *testing.T) {
	g := example.Graph()
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgorithmNames() {
		for _, procs := range []int{2, 0} {
			for _, ctx := range []context.Context{context.Background(), nil} {
				s, err := NewScheduler(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.Schedule(g, procs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := ScheduleCompiled(ctx, s, cg, procs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Length() != want.Length() {
					t.Fatalf("%s procs %d: length %v, want %v", name, procs, got.Length(), want.Length())
				}
				for n := 0; n < g.NumNodes(); n++ {
					if gp, wp := got.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)); gp != wp {
						t.Fatalf("%s procs %d: node %d placed %+v, want %+v", name, procs, n, gp, wp)
					}
				}
			}
		}
	}
}

// TestScheduleCompiledContext pins how the dispatch treats contexts: a
// cancelled one stops every scheduler without a context-aware plan
// entry before it runs, and a nil one leaves FAST's own
// Options.Context in charge.
func TestScheduleCompiledContext(t *testing.T) {
	cg, err := plan.Compile(example.Graph())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range AlgorithmNames() {
		s, err := NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(planFinder); ok {
			continue // the FAST family returns its best schedule so far
		}
		if out, err := ScheduleCompiled(ctx, s, cg, 2); out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got (%v, %v), want (nil, %v)", name, out, err, context.Canceled)
		}
	}
	s := fast.New(fast.Options{Seed: 1, Context: ctx})
	if _, err := ScheduleCompiled(nil, s, cg, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil ctx with a cancelled Options.Context: err = %v, want %v", err, context.Canceled)
	}
}

// TestPlanEntriesNeedOnlyTheCSR runs every registry algorithm on a
// plan compiled from a CSR alone and requires the schedules of a plan
// compiled from the graph: each has a plan entry that reads nothing but
// the CSR and the levels. The exact solver runs on the provable graphs,
// which it proves at every processor count; the rest run on all.
func TestPlanEntriesNeedOnlyTheCSR(t *testing.T) {
	graphs := map[string]*dag.Graph{"example": example.Graph()}
	provable := map[string]bool{"example": true}
	db := timing.ParagonLike()
	var err error
	if graphs["gauss/8"], err = workload.GaussElim(8, db); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 16} {
		name := fmt.Sprintf("fft/%d", n)
		if graphs[name], err = workload.FFT(n, db); err != nil {
			t.Fatal(err)
		}
		provable[name] = n == 8
	}
	for _, v := range []int{12, 60} {
		for _, ccr := range []float64{0.1, 10} {
			g, err := workload.Random(workload.RandomOpts{V: v, Seed: 3, MeanInDegree: 3})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("random/v%d/ccr%g", v, ccr)
			graphs[name] = timing.ScaleCCR(g, ccr)
			provable[name] = v == 12
		}
	}
	for gname, g := range graphs {
		full, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := plan.CompileCompact(dag.BuildCSR(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range AlgorithmNames() {
			if name == "opt" && !provable[gname] {
				continue
			}
			for _, procs := range []int{0, 1, 3, 16} {
				s, err := NewScheduler(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ScheduleCompiled(nil, s, bare, procs)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, gname, err)
				}
				want, err := ScheduleCompiled(nil, s, full, procs)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, gname, err)
				}
				if got.Algorithm != want.Algorithm || got.Balance() != want.Balance() {
					t.Fatalf("%s on %s procs %d: %q balance %v, want %q %v", name, gname, procs,
						got.Algorithm, got.Balance(), want.Algorithm, want.Balance())
				}
				for n := range g.NumNodes() {
					if gp, wp := got.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)); gp != wp {
						t.Fatalf("%s on %s procs %d: node %d placed %+v, want %+v", name, gname, procs, n, gp, wp)
					}
				}
			}
		}
	}
}

// TestPlanEntriesRejectEmptyPlan hands every plan entry a plan with no
// nodes, which no plan constructor builds: each must return an error.
func TestPlanEntriesRejectEmptyPlan(t *testing.T) {
	empty := &plan.CompiledGraph{CSR: dag.BuildCSR(dag.New(0)), Levels: &dag.Levels{}}
	for _, name := range AlgorithmNames() {
		s, err := NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := s.ScheduleCompiled(empty, 2); err == nil {
			t.Errorf("%s scheduled an empty plan: %v", name, out)
		}
	}
}
