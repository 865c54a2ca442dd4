package fastsched_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"fastsched"
)

// Exercises the facade functions not covered by the core API tests:
// profiles, metrics, critical chains, transformations, traced
// simulation, the topology-aware and exact schedulers.
func TestPublicAPIAnalysisSurface(t *testing.T) {
	g := fastsched.PaperExampleGraph()

	p, err := fastsched.ComputeProfile(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 9 || p.Height < 3 {
		t.Fatalf("profile = %+v", p)
	}

	s, err := fastsched.FAST().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := fastsched.ComputeScheduleMetrics(g, s)
	if m.Length != s.Length() || m.ProcsUsed != s.ProcsUsed() {
		t.Fatalf("metrics = %+v", m)
	}
	chain, err := fastsched.CriticalChain(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 || !strings.Contains(fastsched.FormatChain(g, s, chain), "critical chain") {
		t.Fatal("critical chain surface broken")
	}
	if !strings.Contains(fastsched.GanttSVG(g, s, 640), "<svg") {
		t.Fatal("GanttSVG broken")
	}

	rep, tr, err := fastsched.SimulateTraced(g, s, fastsched.SimConfig{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 || len(tr.Events()) == 0 {
		t.Fatal("traced simulation surface broken")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) {
		t.Fatal("chrome trace broken")
	}
}

func TestPublicAPITransformSurface(t *testing.T) {
	g := fastsched.NewGraph(3)
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	c := g.AddNode("c", 1)
	g.MustAddEdge(a, b, 2)
	g.MustAddEdge(b, c, 2)
	g.MustAddEdge(a, c, 0) // implied

	red, err := fastsched.TransitiveReduction(g)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumEdges() != 2 {
		t.Fatalf("reduction left %d edges", red.NumEdges())
	}
	packed, err := fastsched.GrainPack(red, 3)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Graph.NumNodes() != 1 {
		t.Fatalf("pack left %d nodes", packed.Graph.NumNodes())
	}
}

func TestPublicAPITopologyAndExact(t *testing.T) {
	g := fastsched.NewGraph(2)
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 1)
	g.MustAddEdge(a, b, 10)

	mh := fastsched.MH(fastsched.MeshTopology{Cols: 2, PerHop: 4})
	s, err := mh.Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fastsched.Validate(g, s); err != nil {
		t.Fatal(err)
	}

	opt, err := fastsched.Optimal().Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Length() != 2 {
		t.Fatalf("optimum = %v, want 2 (co-located)", opt.Length())
	}

	mesh := fastsched.MeshTopology{Cols: 2, PerHop: 4}
	if mesh.Delay(0, 3) != 8 {
		t.Fatalf("mesh delay = %v", mesh.Delay(0, 3))
	}
}

func TestPublicAPIWorkloadSurface(t *testing.T) {
	db := fastsched.ParagonLike()
	if g, err := fastsched.LU(4, db); err != nil || g.NumNodes() != 9 {
		t.Fatalf("LU: %v", err)
	}
	if g, err := fastsched.Cholesky(4, db); err != nil || g.NumNodes() != 10 {
		t.Fatalf("Cholesky: %v", err)
	}
	if g, err := fastsched.Stencil(3, 2, db); err != nil || g.NumNodes() != 18 {
		t.Fatalf("Stencil: %v", err)
	}
	if g, err := fastsched.DivideConquer(3, db); err != nil || g.NumNodes() != 10 {
		t.Fatalf("DivideConquer: %v", err)
	}
}

func TestPublicAPISeqProgramSurface(t *testing.T) {
	p := fastsched.NewSeqProgram(2).
		Var("x", 5).
		Task("w", 3, nil, []string{"x"}).
		Task("r", 2, []string{"x"}, nil)
	g, err := p.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 5 {
		t.Fatalf("edge = %v,%v", w, ok)
	}
}

func TestPublicAPISolveOptimal(t *testing.T) {
	g := fastsched.PaperExampleGraph()
	out, rep, err := fastsched.SolveOptimal(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Proven || out.Length() != 20 || rep.Best != 20 {
		t.Fatalf("Proven=%v length=%v best=%v, want proven optimum 20", rep.Proven, out.Length(), rep.Best)
	}
	if rep.Procs != 2 || rep.ProcsDefaulted {
		t.Fatalf("Procs=%d Defaulted=%v, want 2/false", rep.Procs, rep.ProcsDefaulted)
	}
	// procs <= 0 applies and surfaces the default.
	_, rep, err = fastsched.SolveOptimal(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProcsDefaulted || rep.Procs != 4 {
		t.Fatalf("Procs=%d Defaulted=%v, want 4/true", rep.Procs, rep.ProcsDefaulted)
	}
}

// graphOnly is a caller's own scheduler: it has a graph entry only.
type graphOnly struct{ fastsched.Scheduler }

// TestPublicAPIScheduleCompiled covers the compiled-plan facade: plan
// schedulers, the exact solver and a caller's own scheduler without a
// plan entry, which gets the graph rebuilt from the plan's CSR, match
// their graph entry node for node, and an already-cancelled
// FASTOptions.Context still governs the run.
func TestPublicAPIScheduleCompiled(t *testing.T) {
	g := fastsched.PaperExampleGraph()
	cg, err := fastsched.CompileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []fastsched.Scheduler{fastsched.ETF(), fastsched.MD(), fastsched.Optimal(), graphOnly{fastsched.DLS()}} {
		want, err := s.Schedule(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fastsched.ScheduleCompiled(s, cg, 3)
		if err != nil {
			t.Fatal(err)
		}
		for n := range fastsched.NodeID(g.NumNodes()) {
			if got.Of(n) != want.Of(n) {
				t.Fatalf("%s: node %d placed %+v, want %+v", s.Name(), n, got.Of(n), want.Of(n))
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fastsched.ScheduleCompiled(fastsched.FASTWith(fastsched.FASTOptions{Seed: 1, Context: ctx}), cg, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FASTOptions.Context: err = %v, want %v", err, context.Canceled)
	}
}
