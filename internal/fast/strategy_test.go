package fast

import (
	"math/rand"
	"testing"
	"time"

	"fastsched/internal/example"
	"fastsched/internal/sched"
)

func TestStrategyStrings(t *testing.T) {
	if Greedy.String() != "greedy" || SteepestDescent.String() != "steepest" ||
		Annealing.String() != "annealing" {
		t.Fatal("strategy strings")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should stringify")
	}
}

func TestSteepestDescentNeverWorseThanInitial(t *testing.T) {
	g := example.Graph()
	init, err := New(Options{MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Strategy: SteepestDescent, MaxSteps: 32}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Length() > init.Length()+1e-9 {
		t.Fatalf("steepest descent worsened %v -> %v", init.Length(), s.Length())
	}
	// Steepest descent with enough rounds dominates a greedy walk of the
	// same budget on this small graph (it considers every move).
	greedy, _ := New(Options{Seed: 1, MaxSteps: 32}).Schedule(g, 4)
	if s.Length() > greedy.Length()+1e-9 {
		t.Fatalf("steepest (%v) worse than greedy (%v)", s.Length(), greedy.Length())
	}
}

func TestSteepestStopsAtLocalMinimum(t *testing.T) {
	// A graph with nothing to improve: one node. The search must
	// terminate immediately without panicking.
	g := example.Graph()
	a, err := New(Options{Strategy: SteepestDescent, MaxSteps: 10_000}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, a); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealingDeterministicAndValid(t *testing.T) {
	g := example.Graph()
	opt := Options{Strategy: Annealing, Seed: 5, MaxSteps: 512}
	a, err := New(opt).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	b, _ := New(opt).Schedule(g, 4)
	if a.Length() != b.Length() {
		t.Fatalf("annealing nondeterministic: %v vs %v", a.Length(), b.Length())
	}
}

// Annealing returns the best assignment seen, so it can never end worse
// than the initial schedule.
func TestAnnealingNeverWorseThanInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomLayeredGraph(rng, 2+rng.Intn(50))
		procs := 2 + rng.Intn(4)
		init, err := New(Options{MaxSteps: -1}).Schedule(g, procs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{Strategy: Annealing, Seed: int64(trial), MaxSteps: 128}).Schedule(g, procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Length() > init.Length()+1e-9 {
			t.Fatalf("trial %d: annealing worsened %v -> %v", trial, init.Length(), s.Length())
		}
	}
}

func TestStrategiesOnSingleProcessorNoop(t *testing.T) {
	g := example.Graph()
	for _, strat := range []Strategy{Greedy, SteepestDescent, Annealing} {
		s, err := New(Options{Strategy: strat, Seed: 1}).Schedule(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != g.TotalWork() {
			t.Fatalf("%v on one processor: %v != %v", strat, s.Length(), g.TotalWork())
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
		g := randomLayeredGraph(rng, 20+rng.Intn(40))
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
	g := randomLayeredGraph(rand.New(rand.NewSource(2)), 60)
	begin := time.Now()
	if _, err := New(Options{Seed: 1, Budget: 30 * time.Millisecond}).Schedule(g, 8); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("budgeted search ran %v, far beyond its 30ms budget", elapsed)
	}
}
