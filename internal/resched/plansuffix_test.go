package resched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/sim"
)

// crashCase is one crashed run: the schedule that ran and the crash
// report it stopped with.
type crashCase struct {
	name  string
	g     *dag.Graph
	s     *sched.Schedule
	crash *sim.CrashError
}

// crashAt runs s under the given crashes and returns the crash report,
// or nil when the run completed anyway.
func crashAt(t testing.TB, g *dag.Graph, s *sched.Schedule, crashes ...sim.Crash) *sim.CrashError {
	t.Helper()
	_, err := sim.Run(g, s, sim.Config{Faults: &sim.FaultPlan{Crashes: crashes}})
	var ce *sim.CrashError
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("want a crash report, got %v", err)
	}
	return ce
}

// crashMatrix is TestRepairAcrossCrashTimes's cases, then
// TestRepairDoubleFault's second crashes.
func crashMatrix(t *testing.T) []crashCase {
	t.Helper()
	var out []crashCase
	for name, g := range workloads(t) {
		s, err := fast.Default().Schedule(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(g, s, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		procs := s.Procs()
		for i := 1; i <= 5; i++ {
			c := sim.Crash{Proc: procs[i%len(procs)], Time: base.Time * float64(i) / 6}
			if ce := crashAt(t, g, s, c); ce != nil {
				out = append(out, crashCase{fmt.Sprintf("%s/crash%d", name, i), g, s, ce})
			}
		}
		for ci, tc := range []struct{ f1, f2 float64 }{{0.25, 0.55}, {0.40, 0.60}, {0.20, 0.85}} {
			c1 := sim.Crash{Proc: procs[0], Time: base.Time * tc.f1}
			ce1 := crashAt(t, g, s, c1)
			if ce1 == nil {
				continue
			}
			r1, err := Repair(g, s, ce1, Options{Seed: int64(ci)})
			if err != nil {
				t.Fatal(err)
			}
			c2 := sim.Crash{Proc: r1.Survivors[0], Time: r1.Makespan * tc.f2}
			if c2.Time <= c1.Time {
				c2.Time = c1.Time + (r1.Makespan-c1.Time)/2
			}
			if ce2 := crashAt(t, g, r1.Schedule, c1, c2); ce2 != nil {
				out = append(out, crashCase{fmt.Sprintf("%s/double%d", name, ci), g, r1.Schedule, ce2})
			}
		}
	}
	return out
}

// randomCrashes crashes FAST schedules of 60 random layered graphs
// (v = 40–120) at procs 3, 4 and 8, a quarter, half and three quarters
// of the way through, each time on another processor.
func randomCrashes(t *testing.T) []crashCase {
	t.Helper()
	var out []crashCase
	for seed := int64(1); seed <= 60; seed++ {
		g := schedtest.RandomLayered(rand.New(rand.NewSource(seed)), 40+int(seed*37%81))
		for _, procs := range []int{3, 4, 8} {
			s, err := fast.Default().Schedule(g, procs)
			if err != nil {
				t.Fatal(err)
			}
			base, err := sim.Run(g, s, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			used := s.Procs()
			for i, frac := range []float64{0.25, 0.5, 0.75} {
				c := sim.Crash{Proc: used[(int(seed)+i)%len(used)], Time: base.Time * frac}
				if ce := crashAt(t, g, s, c); ce != nil {
					out = append(out, crashCase{fmt.Sprintf("seed%d/p%d/%g", seed, procs, frac), g, s, ce})
				}
			}
		}
	}
	return out
}

// matchOracle fails unless PlanSuffix and oraclePlanSuffix return the
// same plan, bit for bit, and the same error.
func matchOracle(t testing.TB, g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64, opts Options) {
	t.Helper()
	got, gotErr := PlanSuffix(g, pre, survivors, floor, opts)
	want, wantErr := oraclePlanSuffix(g, pre, survivors, floor, opts)
	if (gotErr == nil) != (wantErr == nil) || (got == nil) != (want == nil) {
		t.Fatalf("PlanSuffix error %v, oracle %v", gotErr, wantErr)
	}
	if got == nil {
		return
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Proc, want.Proc) ||
		!slices.Equal(got.Start, want.Start) || !slices.Equal(got.Finish, want.Finish) ||
		got.Makespan != want.Makespan {
		t.Fatalf("plan differs from the oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestPlanSuffixMatchesOracle pins PlanSuffix, FAST's frozen machine,
// to the planner resched used to run on its own (oracle_test.go), bit
// for bit, over the crash matrix, the double-fault matrix and a random
// sweep: phase 1 alone and with the search.
func TestPlanSuffixMatchesOracle(t *testing.T) {
	cases := append(crashMatrix(t), randomCrashes(t)...)
	if len(cases) < 400 {
		t.Fatalf("only %d crashed runs; the sweep is too thin", len(cases))
	}
	for i, c := range cases {
		pre, survivors, floor := crashInputs(c.s, c.crash)
		for _, opts := range []Options{{MaxSteps: -1}, {Seed: int64(i)}} {
			t.Run(fmt.Sprintf("%s/steps%d", c.name, opts.MaxSteps), func(t *testing.T) {
				matchOracle(t, c.g, pre, survivors, floor, opts)
			})
		}
	}
}

// FuzzRepair crashes a FAST schedule of a random layered graph on one
// processor part of the way through and repairs it. The spliced
// schedule must validate, no suffix task may run on the dead processor
// or start before the crash, and the plan must equal the oracle's.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), 0.5)
	f.Add(int64(7), uint8(90), uint8(8), uint8(3), 0.25)
	f.Add(int64(23), uint8(120), uint8(3), uint8(1), 0.75)
	f.Add(int64(5), uint8(12), uint8(2), uint8(1), 0.1)
	f.Add(int64(9), uint8(60), uint8(1), uint8(0), 0.6)
	f.Fuzz(func(t *testing.T, seed int64, size, procs, crashProc uint8, frac float64) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			t.Skip()
		}
		g := schedtest.RandomLayered(rand.New(rand.NewSource(seed)), 2+int(size)%150)
		s, err := fast.Default().Schedule(g, 1+int(procs)%8)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(g, s, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		used := s.Procs()
		dead := used[int(crashProc)%len(used)]
		at := base.Time * math.Abs(math.Mod(frac, 1))
		ce := crashAt(t, g, s, sim.Crash{Proc: dead, Time: at})
		if ce == nil {
			return
		}
		res, err := Repair(g, s, ce, Options{Seed: seed})
		if len(used) == 1 {
			if err == nil {
				t.Fatal("repair with no survivors succeeded")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateDurations(g, res.Schedule, res.Durations); err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Suffix {
			pl := res.Schedule.Of(n)
			if pl.Proc == dead || pl.Start < at {
				t.Fatalf("suffix task %d runs on PE%d from %v; PE%d died at %v", n, pl.Proc, pl.Start, dead, at)
			}
		}
		pre, survivors, floor := crashInputs(s, ce)
		matchOracle(t, g, pre, survivors, floor, Options{Seed: seed})
	})
}

// TestPlanSuffixRejectsBadInput covers PlanSuffix's input errors: a
// prefix of the wrong size, no survivors, nothing left to run, a bad
// weight in the suffix or on a boundary edge, and a prefix parent that
// finishes after its survivor's floor.
func TestPlanSuffixRejectsBadInput(t *testing.T) {
	g := schedtest.Chain(4, 1)
	done := []bool{true, false, false, false}
	pre := Prefix{Done: done, Finish: []float64{1, 0, 0, 0}, Proc: []int{0, 0, 0, 0}}
	floor := map[int]float64{0: 1, 1: 1}
	badNode, badEdge := schedtest.Chain(4, 1), schedtest.Chain(4, 1)
	badNode.SetWeight(2, math.NaN())
	badEdge.SetEdgeWeight(0, 1, -1)
	cases := map[string]func() (*SuffixPlan, error){
		"prefix size": func() (*SuffixPlan, error) {
			return PlanSuffix(g, Prefix{Done: done[:3]}, []int{0}, floor, Options{})
		},
		"no survivors": func() (*SuffixPlan, error) { return PlanSuffix(g, pre, nil, floor, Options{}) },
		"nothing to run": func() (*SuffixPlan, error) {
			return PlanSuffix(g, Prefix{Done: []bool{true, true, true, true}, Finish: make([]float64, 4), Proc: make([]int, 4)},
				[]int{0}, floor, Options{})
		},
		"bad node weight": func() (*SuffixPlan, error) { return PlanSuffix(badNode, pre, []int{0, 1}, floor, Options{}) },
		"bad edge weight": func() (*SuffixPlan, error) { return PlanSuffix(badEdge, pre, []int{0, 1}, floor, Options{}) },
		"parent after floor": func() (*SuffixPlan, error) {
			return PlanSuffix(g, pre, []int{0, 1}, map[int]float64{0: 0.5, 1: 1}, Options{})
		},
	}
	for name, run := range cases {
		if p, err := run(); p != nil || err == nil {
			t.Errorf("%s: plan %v, error %v; want an error alone", name, p, err)
		}
	}
	if p, err := PlanSuffix(g, pre, []int{0, 1}, floor, Options{}); err != nil || p.Makespan != 4 {
		t.Fatalf("valid input: plan %+v, error %v; want makespan 4", p, err)
	}
}

// TestExecuteRepairsCrash runs Execute through a crash and checks that
// the repaired report is returned with the repair, whose telemetry is
// recorded.
func TestExecuteRepairsCrash(t *testing.T) {
	g := schedtest.RandomLayered(rand.New(rand.NewSource(41)), 50)
	s, err := fast.Default().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(g, s, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := sim.Config{Faults: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: s.Procs()[0], Time: base.Time / 2}}}}
	rep, res, err := Execute(g, s, cfg, Options{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || rep.Time != res.Makespan {
		t.Fatalf("repair %v, report time %v", res, rep.Time)
	}
	if got := reg.Counter("resched.repairs").Value(); got != 1 {
		t.Fatalf("resched.repairs = %d, want 1", got)
	}
	if _, err := Repair(g, s, nil, Options{}); err == nil {
		t.Fatal("nil crash report accepted")
	}
	if _, err := Repair(schedtest.Chain(3, 1), s, &sim.CrashError{Done: make([]bool, 2)}, Options{}); err == nil {
		t.Fatal("crash report of the wrong size accepted")
	}
}
