package mapping

import (
	"math/rand"
	"testing"

	"fastsched/internal/cluster"
	"fastsched/internal/dag"
	"fastsched/internal/dsc"
	"fastsched/internal/lc"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// compile is the plan Map re-evaluates against.
func compile(t *testing.T, g *dag.Graph) *plan.CompiledGraph {
	t.Helper()
	cg, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestMapBoundsProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := schedtest.RandomLayered(rng, 80)
	s, err := dsc.New().Schedule(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() <= 4 {
		t.Skip("DSC used few clusters on this draw; nothing to map")
	}
	m, err := Map(compile(t, g), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, m); err != nil {
		t.Fatal(err)
	}
	if m.ProcsUsed() > 4 {
		t.Fatalf("%d procs after mapping to 4", m.ProcsUsed())
	}
}

func TestMapPassthroughWhenWithinBudget(t *testing.T) {
	g := schedtest.Chain(5, 3)
	s, err := lc.New().Schedule(g, 0) // one cluster
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(compile(t, g), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m != s {
		t.Fatal("within-budget schedule should pass through unchanged")
	}
	if _, err := Map(compile(t, g), s, 0); err == nil {
		t.Fatal("procs=0 accepted")
	}
}

// LPT balances skewed cluster loads better than wrap mapping (cluster
// i on processor i mod p, built here as the baseline): with two
// processors and clusters of very different sizes, LPT's worst-case
// processor load is no higher than wrap's.
func TestLPTBalancesBetterThanWrap(t *testing.T) {
	// six independent tasks with loads 10,1,10,1,10,1 in cluster order:
	// wrap on 2 processors puts all three heavy tasks on processor 0
	// (makespan 30); LPT packs them 10+10+1+1 / 10+1 (makespan 22) —
	// strictly better.
	g := dag.New(6)
	for i := 0; i < 6; i++ {
		w := 1.0
		if i%2 == 0 {
			w = 10
		}
		g.AddNode("", w)
	}
	l := mustSchedule(t, g) // one cluster per task (independent tasks)
	lptS, err := Map(compile(t, g), l, 2)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	wrap := make([]int, g.NumNodes())
	for i := range wrap {
		wrap[i] = i % 2
	}
	wrapS := cluster.Evaluate(dag.BuildCSR(g), lv.PriorityOrder(lv.BLevel), wrap)
	if err := sched.Validate(g, lptS); err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, wrapS); err != nil {
		t.Fatal(err)
	}
	if wrapS.Length() != 30 {
		t.Fatalf("wrap makespan = %v, want 30", wrapS.Length())
	}
	if lptS.Length() >= wrapS.Length() {
		t.Fatalf("LPT (%v) not better than wrap (%v) on skewed loads", lptS.Length(), wrapS.Length())
	}
}

func mustSchedule(t *testing.T, g *dag.Graph) *sched.Schedule {
	t.Helper()
	s := sched.New(g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := dag.NodeID(i)
		s.Place(n, i, 0, g.Weight(n))
	}
	s.Algorithm = "spread"
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBoundedWrapperConformance(t *testing.T) {
	b := &Bounded{Inner: dsc.New()}
	if b.Name() != "DSC+map" {
		t.Fatalf("name = %q", b.Name())
	}
	schedtest.Conformance(t, b, true)
}

func TestBoundedUnboundedPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := schedtest.RandomLayered(rng, 50)
	b := &Bounded{Inner: dsc.New()}
	s, err := b.Schedule(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := dsc.New().Schedule(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() != plain.ProcsUsed() || s.Length() != plain.Length() {
		t.Fatal("procs<=0 should pass the clustering through unchanged")
	}
}

// Mapping onto fewer processors can only reduce parallelism, never
// break validity; and more processors never hurt.
func TestMappingMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := schedtest.RandomLayered(rng, 2+rng.Intn(60))
		s, err := lc.New().Schedule(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			m, err := Map(compile(t, g), s, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Validate(g, m); err != nil {
				t.Fatalf("trial %d p=%d: %v", trial, p, err)
			}
			if m.ProcsUsed() > p {
				t.Fatalf("trial %d: %d procs with budget %d", trial, m.ProcsUsed(), p)
			}
			if m.Length() < g.TotalWork()/float64(p)-1e-9 && p == 1 {
				t.Fatalf("trial %d: single-proc mapping beats serial bound", trial)
			}
		}
	}
}
