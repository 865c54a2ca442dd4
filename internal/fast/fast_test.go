package fast

import (
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

func exampleList(t *testing.T) (*dag.Graph, []dag.NodeID) {
	t.Helper()
	g := example.Graph()
	l, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	cls := dag.Classify(g, l)
	return g, plan.CPNDominateList(dag.BuildCSR(g), l, cls)
}

// The paper gives the CPN-Dominate list of the Figure-1 graph verbatim:
// {n1, n3, n2, n7, n6, n5, n4, n8, n9}.
func TestCPNDominateListMatchesPaper(t *testing.T) {
	_, list := exampleList(t)
	want := []int{1, 3, 2, 7, 6, 5, 4, 8, 9}
	if len(list) != len(want) {
		t.Fatalf("list = %v", list)
	}
	for i, k := range want {
		if list[i] != example.N(k) {
			got := make([]int, len(list))
			for j, n := range list {
				got[j] = int(n) + 1
			}
			t.Fatalf("list = n%v, want n%v", got, want)
		}
	}
}

func TestCPNDominateListIsTopological(t *testing.T) {
	g, list := exampleList(t)
	assertTopological(t, g, list)
}

func assertTopological(t *testing.T, g *dag.Graph, list []dag.NodeID) {
	t.Helper()
	if len(list) != g.NumNodes() {
		t.Fatalf("list has %d nodes, graph has %d", len(list), g.NumNodes())
	}
	pos := make(map[dag.NodeID]int, len(list))
	for i, n := range list {
		if _, dup := pos[n]; dup {
			t.Fatalf("node %d appears twice", n)
		}
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates list order", e.From, e.To)
		}
	}
}

func TestBlockingListMatchesPaper(t *testing.T) {
	cg, err := plan.Compile(example.Graph())
	if err != nil {
		t.Fatal(err)
	}
	got := cg.Blocking
	want := []dag.NodeID{example.N(2), example.N(3), example.N(4), example.N(5), example.N(6), example.N(8)}
	if len(got) != len(want) {
		t.Fatalf("blocking list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocking list = %v, want %v", got, want)
		}
	}
}

func TestInitialScheduleValidAndBounded(t *testing.T) {
	g := example.Graph()
	s, err := New(Options{MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() > 4 {
		t.Fatalf("used %d procs with 4 available", s.ProcsUsed())
	}
	if s.Algorithm != "FAST/initial" {
		t.Fatalf("Algorithm = %q", s.Algorithm)
	}
	// schedule length can never beat the computation-only critical path
	// (8 for n1->n7->n9: 2+4+1... with zeroed comm: w1+w7+w9 = 7) and
	// never exceed serial execution.
	if s.Length() > g.TotalWork() {
		t.Fatalf("initial schedule (%v) worse than serial (%v)", s.Length(), g.TotalWork())
	}
}

func TestSearchNeverWorsensInitial(t *testing.T) {
	g := example.Graph()
	init, err := New(Options{MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		s, err := New(Options{Seed: seed}).Schedule(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.Length() > init.Length()+1e-9 {
			t.Fatalf("seed %d: search worsened %v -> %v", seed, init.Length(), s.Length())
		}
	}
}

func TestFASTImprovesExampleSchedule(t *testing.T) {
	// With enough steps, local search must strictly improve the initial
	// schedule of the example graph or already be at the CP-derived
	// optimum; assert it reaches <= the initial length and >= max node
	// path with zero comm (lower bound 7).
	g := example.Graph()
	init, _ := New(Options{MaxSteps: -1}).Schedule(g, 4)
	best := init.Length()
	s, err := New(Options{Seed: 3, MaxSteps: 512}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() > best {
		t.Fatalf("search worsened schedule")
	}
	if s.Length() < 7 {
		t.Fatalf("impossible schedule length %v", s.Length())
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := example.Graph()
	a, err := New(Options{Seed: 42}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Seed: 42}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := dag.NodeID(i)
		if a.Of(n) != b.Of(n) {
			t.Fatalf("node %d differs between runs: %+v vs %+v", n, a.Of(n), b.Of(n))
		}
	}
}

func TestSingleProcessorSerializes(t *testing.T) {
	g := example.Graph()
	s, err := Default().Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() != 1 {
		t.Fatalf("ProcsUsed = %d", s.ProcsUsed())
	}
	if s.Length() != g.TotalWork() {
		t.Fatalf("serial schedule length %v != total work %v", s.Length(), g.TotalWork())
	}
}

func TestUnboundedDefaultsToNodeCount(t *testing.T) {
	g := example.Graph()
	s, err := Default().Schedule(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := Default().Schedule(dag.New(0), 4); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestSchedulerNames(t *testing.T) {
	if Default().Name() != "FAST" {
		t.Fatal("default name")
	}
	if New(Options{MaxSteps: -1}).Name() != "FAST/initial" {
		t.Fatal("no-search name")
	}
	if New(Options{Parallelism: 4}).Name() != "PFAST" {
		t.Fatal("parallel name")
	}
	if New(Options{MaxSteps: -1}).Name() != "FAST/initial" {
		t.Fatal("negative MaxSteps name")
	}
}

func TestListOrderStrings(t *testing.T) {
	if CPNDominate.String() != "cpn-dominate" || BLevelOrder.String() != "b-level" ||
		StaticLevelOrder.String() != "static-level" {
		t.Fatal("ListOrder strings")
	}
	if ListOrder(99).String() == "" {
		t.Fatal("unknown order should still stringify")
	}
}

func TestAblationOrdersProduceValidSchedules(t *testing.T) {
	g := example.Graph()
	for _, order := range []ListOrder{CPNDominate, BLevelOrder, StaticLevelOrder} {
		s, err := New(Options{Order: order, Seed: 1}).Schedule(g, 4)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("%v: %v", order, err)
		}
	}
}

// TestInsertionPhase1Valid: the insertion ablation's phase 1 prices
// ready-time placement's candidates with the gaps between placed tasks
// open too, and it is no longer than ready-time placement on the
// example graph, nor in geometric mean over the oracle corpus at each
// instance's processor count.
func TestInsertionPhase1Valid(t *testing.T) {
	g := example.Graph()
	s, err := New(Options{Insertion: true, MaxSteps: -1}).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	plain, _ := New(Options{MaxSteps: -1}).Schedule(g, 4)
	if s.Length() > plain.Length()+1e-9 {
		t.Fatalf("insertion (%v) worse than ready-time (%v)", s.Length(), plain.Length())
	}
	logSum, corpus := 0.0, schedtest.OracleCorpus()
	for _, inst := range corpus {
		ins, err := New(Options{Insertion: true, MaxSteps: -1}).Schedule(inst.Graph, inst.Procs)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New(Options{MaxSteps: -1}).Schedule(inst.Graph, inst.Procs)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(ins.Length() / plain.Length())
	}
	if gm := math.Exp(logSum / float64(len(corpus))); gm > 1 {
		t.Fatalf("insertion phase 1 is %.3fx ready-time placement over the corpus (geometric mean)", gm)
	}
}

func TestPFASTValidAndDeterministic(t *testing.T) {
	g := example.Graph()
	opt := Options{Parallelism: 4, Seed: 9, MaxSteps: 128}
	a, err := New(opt).Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	b, _ := New(opt).Schedule(g, 4)
	if a.Length() != b.Length() {
		t.Fatalf("PFAST nondeterministic: %v vs %v", a.Length(), b.Length())
	}
	serial, _ := New(Options{Seed: 9, MaxSteps: 128}).Schedule(g, 4)
	if a.Length() > serial.Length()+1e-9 {
		t.Fatalf("PFAST (%v) worse than one of its own searchers (%v)", a.Length(), serial.Length())
	}
}

// Property test over random layered DAGs: the CPN-Dominate list is a
// topological order; FAST schedules are valid on bounded and unbounded
// machines; search never worsens the initial schedule.
func TestFASTPropertiesOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := schedtest.RandomLayered(rng, 2+rng.Intn(70))
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		cls := dag.Classify(g, l)
		list := plan.CPNDominateList(dag.BuildCSR(g), l, cls)
		assertTopological(t, g, list)

		procs := 1 + rng.Intn(6)
		init, err := New(Options{MaxSteps: -1}).Schedule(g, procs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sched.Validate(g, init); err != nil {
			t.Fatalf("trial %d initial: %v", trial, err)
		}
		s, err := New(Options{Seed: int64(trial), MaxSteps: 32}).Schedule(g, procs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("trial %d search: %v", trial, err)
		}
		if s.Length() > init.Length()+1e-9 {
			t.Fatalf("trial %d: search worsened %v -> %v", trial, init.Length(), s.Length())
		}
		if s.ProcsUsed() > procs {
			t.Fatalf("trial %d: used %d of %d procs", trial, s.ProcsUsed(), procs)
		}
	}
}
