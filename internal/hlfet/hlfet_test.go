package hlfet

import (
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

func TestConformance(t *testing.T) {
	schedtest.Conformance(t, New(), true)
}

func TestName(t *testing.T) {
	if New().Name() != "HLFET" {
		t.Fatal("name")
	}
}

func TestExampleGraphValid(t *testing.T) {
	g := example.Graph()
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
}

// HLFET's defining move: the ready node with the highest static level
// goes first, even when another ready node could start just as early.
func TestHighestStaticLevelFirst(t *testing.T) {
	g := dag.New(4)
	x := g.AddNode("x", 2)
	y := g.AddNode("y", 2)
	yc := g.AddNode("yc", 20) // makes SL(y) big
	xc := g.AddNode("xc", 1)
	g.MustAddEdge(y, yc, 0)
	g.MustAddEdge(x, xc, 0)
	s, err := New().Schedule(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start(y) != 0 {
		t.Fatalf("y should start first (SL 22 vs 3), got y=%v x=%v", s.Start(y), s.Start(x))
	}
}

// HLFET ignores communication when prioritizing but not when placing:
// a child is still co-located with its parent when the message is
// expensive.
func TestPlacementAvoidsComm(t *testing.T) {
	g := dag.New(2)
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.MustAddEdge(a, b, 100)
	s, err := New().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proc(a) != s.Proc(b) || s.Length() != 2 {
		t.Fatalf("placement paid the message: %v", s.Length())
	}
}

// TestScheduleCSRBitIdentical pins HLFET's one loop against the
// *dag.Graph oracle in oracle_test.go: Schedule, ScheduleCompiled and
// ScheduleCSR all give the oracle's assignments and start/finish times,
// bit for bit, across shapes, sizes and processor counts — including
// procs <= 0 (one processor per node).
func TestScheduleCSRBitIdentical(t *testing.T) {
	graphs := []*dag.Graph{example.Graph()}
	for seed := int64(1); seed <= 6; seed++ {
		g, err := workload.Random(workload.RandomOpts{V: 40, Seed: seed, MeanInDegree: 4})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	lg, err := workload.LayeredCSR(workload.LayeredOpts{V: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, lg.ToGraph())
	for gi, g := range graphs {
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{-1, 1, 2, 4, 7} {
			want, err := scheduleWithLevels(g, l, procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: oracle: %v", gi, procs, err)
			}
			viaGraph, err := New().Schedule(g, procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: graph: %v", gi, procs, err)
			}
			viaPlan, err := New().ScheduleCompiled(cg, procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: plan: %v", gi, procs, err)
			}
			viaCSR, err := New().ScheduleCSR(dag.BuildCSR(g), procs)
			if err != nil {
				t.Fatalf("graph %d procs %d: csr: %v", gi, procs, err)
			}
			for n := 0; n < g.NumNodes(); n++ {
				id := dag.NodeID(n)
				pl := want.Of(id)
				for name, got := range map[string]*sched.Schedule{"graph": viaGraph, "plan": viaPlan, "csr": viaCSR} {
					if got.Of(id) != pl {
						t.Fatalf("graph %d procs %d node %d: %s %+v vs oracle %+v", gi, procs, n, name, got.Of(id), pl)
					}
				}
			}
			if err := sched.Validate(g, viaGraph); err != nil {
				t.Fatalf("graph %d procs %d: %v", gi, procs, err)
			}
		}
	}
}

// TestEmptyAndCyclicRejected covers the error paths of every entry
// point.
func TestEmptyAndCyclicRejected(t *testing.T) {
	if _, err := New().ScheduleCSR(dag.BuildCSR(dag.New(0)), 2); err == nil {
		t.Fatal("empty CSR scheduled")
	}
	if _, err := New().ScheduleCompiled(&plan.CompiledGraph{CSR: dag.BuildCSR(dag.New(0)), Levels: &dag.Levels{}}, 2); err == nil {
		t.Fatal("empty plan scheduled")
	}
	g := dag.New(2)
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	g.MustAddEdge(a, b, 0)
	c := dag.BuildCSR(g)
	// Close a cycle b->a behind the graph's back.
	c.PredOff = []int32{0, 1, 2}
	c.PredFrom = []int32{1, 0}
	c.PredW = []float64{0, 0}
	c.SuccOff = []int32{0, 1, 2}
	c.SuccTo = []int32{1, 0}
	c.SuccW = []float64{0, 0}
	if _, err := New().ScheduleCSR(c, 2); err == nil {
		t.Fatal("cyclic CSR scheduled")
	}
	if _, err := schedule(c, []float64{1, 1}, 2); err == nil {
		t.Fatal("cyclic CSR scheduled by the loop")
	}
}
