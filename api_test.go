package fastsched_test

import (
	"bytes"
	"strings"
	"testing"

	"fastsched"
)

func buildPipelineGraph(t *testing.T) *fastsched.Graph {
	t.Helper()
	g := fastsched.NewGraph(4)
	a := g.AddNode("load", 2)
	b := g.AddNode("left", 3)
	c := g.AddNode("right", 3)
	d := g.AddNode("store", 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(a, c, 1)
	g.MustAddEdge(b, d, 2)
	g.MustAddEdge(c, d, 2)
	return g
}

func TestPublicAPISchedulesAndValidates(t *testing.T) {
	g := buildPipelineGraph(t)
	for _, s := range []fastsched.Scheduler{
		fastsched.FAST(), fastsched.ETF(), fastsched.DLS(),
		fastsched.MD(), fastsched.DSC(), fastsched.PFAST(2, 1),
		fastsched.HLFET(), fastsched.MCP(), fastsched.LC(), fastsched.EZ(),
	} {
		out, err := s.Schedule(g, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := fastsched.Validate(g, out); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestPublicAPILevels(t *testing.T) {
	g := buildPipelineGraph(t)
	l, err := fastsched.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	if l.CPLen != 9 { // 2+1+3+2+1
		t.Fatalf("CPLen = %v, want 9", l.CPLen)
	}
	cp := fastsched.CriticalPath(g, l)
	if len(cp) != 3 {
		t.Fatalf("CP = %v", cp)
	}
}

func TestPublicAPIJSONRoundTrip(t *testing.T) {
	g := buildPipelineGraph(t)
	var buf bytes.Buffer
	if err := fastsched.WriteGraphJSON(&buf, g, "pipe"); err != nil {
		t.Fatal(err)
	}
	g2, name, err := fastsched.ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "pipe" || g2.NumNodes() != 4 {
		t.Fatalf("round trip: name=%q v=%d", name, g2.NumNodes())
	}
	if !strings.Contains(fastsched.GraphDOT(g, "pipe"), "digraph") {
		t.Fatal("DOT output broken")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	db := fastsched.ParagonLike()
	if g, err := fastsched.GaussElim(4, db); err != nil || g.NumNodes() != 20 {
		t.Fatalf("gauss: %v", err)
	}
	if g, err := fastsched.Laplace(4, db); err != nil || g.NumNodes() != 18 {
		t.Fatalf("laplace: %v", err)
	}
	if g, err := fastsched.FFT(16, db); err != nil || g.NumNodes() != 14 {
		t.Fatalf("fft: %v", err)
	}
	g, err := fastsched.RandomDAG(fastsched.RandomDAGOptions{V: 50, Seed: 1, MeanInDegree: 3})
	if err != nil || g.NumNodes() != 50 {
		t.Fatalf("random: %v", err)
	}
	fastsched.ScaleCCR(g, 2)
	if ccr := g.CCR(); ccr < 1.99 || ccr > 2.01 {
		t.Fatalf("CCR = %v", ccr)
	}
}

func TestPublicAPIPipelineAndSim(t *testing.T) {
	g, err := fastsched.GaussElim(4, fastsched.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	r, err := fastsched.RunPipeline(g, fastsched.FAST(), 4, fastsched.SimConfig{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecTime < r.ScheduleLength {
		t.Fatalf("contention cannot beat the static schedule: exec %v < SL %v", r.ExecTime, r.ScheduleLength)
	}
	s, err := fastsched.FAST().Schedule(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fastsched.Simulate(g, s, fastsched.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time != s.Length() {
		t.Fatalf("clean sim %v != schedule length %v", rep.Time, s.Length())
	}
	if !strings.Contains(fastsched.Gantt(g, s, 60), "PE 0") {
		t.Fatal("gantt output broken")
	}
	if !strings.Contains(fastsched.ScheduleTable(g, s), "start") {
		t.Fatal("table output broken")
	}
}

func TestPublicAPISTGAndScheduleIO(t *testing.T) {
	g := buildPipelineGraph(t)
	var buf bytes.Buffer
	if err := fastsched.WriteGraphSTG(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := fastsched.ReadGraphSTG(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("STG round trip changed shape")
	}
	s, err := fastsched.FAST().Schedule(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fastsched.WriteScheduleJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := fastsched.ReadScheduleJSON(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Length() != s.Length() {
		t.Fatal("schedule round trip changed length")
	}
	lb, err := fastsched.ComputeBounds(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() < lb.Combined-1e-9 {
		t.Fatalf("schedule %v beats lower bound %v", s.Length(), lb.Combined)
	}
	if lb.Gap(s.Length()) < 1 {
		t.Fatal("gap below 1")
	}
}

func TestPublicAPIRegistry(t *testing.T) {
	for _, name := range fastsched.AlgorithmNames() {
		if _, err := fastsched.NewScheduler(name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := fastsched.NewScheduler("nope", 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if fastsched.FASTWith(fastsched.FASTOptions{MaxSteps: -1}).Name() != "FAST/initial" {
		t.Fatal("FASTWith options ignored")
	}
	if fastsched.CoarseGrain().Flop <= 0 || fastsched.FineGrain().Startup <= 0 {
		t.Fatal("preset cost models broken")
	}
}
