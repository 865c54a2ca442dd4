package cluster

import (
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

func TestEvaluateSingleCluster(t *testing.T) {
	g := schedtest.Chain(5, 9)
	l, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, 5) // everything in cluster 0
	s := Evaluate(dag.BuildCSR(g), l.PriorityOrder(l.BLevel), assign)
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Length() != 5 || s.ProcsUsed() != 1 {
		t.Fatalf("len %v procs %d", s.Length(), s.ProcsUsed())
	}
}

func TestEvaluateSeparateClusters(t *testing.T) {
	g := schedtest.Chain(3, 4)
	l, _ := dag.ComputeLevels(g)
	s := Evaluate(dag.BuildCSR(g), l.PriorityOrder(l.BLevel), []int{0, 1, 2})
	if err := sched.Validate(g, s); err != nil {
		t.Fatal(err)
	}
	// every hop pays comm 4: 1 + 4+1 + 4+1 = 11
	if s.Length() != 11 {
		t.Fatalf("length = %v, want 11", s.Length())
	}
	if s.ProcsUsed() != 3 {
		t.Fatalf("procs = %d", s.ProcsUsed())
	}
}

func TestMakespanMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		g := schedtest.RandomLayered(rng, 2+rng.Intn(50))
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, g.NumNodes())
		for i := range assign {
			assign[i] = rng.Intn(min(5, len(assign))) // cluster IDs lie in [0, v)
		}
		order := l.PriorityOrder(l.BLevel)
		start := make([]float64, g.NumNodes())
		finish := make([]float64, g.NumNodes())
		c := dag.BuildCSR(g)
		m := Makespan(c, order, assign, start, finish, make([]float64, g.NumNodes()))
		s := Evaluate(c, order, assign)
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Length() != m {
			t.Fatalf("trial %d: Evaluate %v != Makespan %v", trial, s.Length(), m)
		}
	}
}

func TestPriorityOrderTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		g := schedtest.RandomLayered(rng, 2+rng.Intn(60))
		l, _ := dag.ComputeLevels(g)
		order := l.PriorityOrder(l.BLevel)
		pos := make([]int, g.NumNodes())
		for i, n := range order {
			pos[n] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("trial %d: order not topological on %d->%d", trial, e.From, e.To)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("fresh unions failed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union reported success")
	}
	if u.Find(0) != u.Find(1) || u.Find(2) != u.Find(3) {
		t.Fatal("find inconsistent")
	}
	if u.Find(0) == u.Find(2) {
		t.Fatal("distinct sets merged")
	}
	u.Union(1, 3)
	a := u.Assignment()
	if a[0] != a[2] || a[4] == a[5] || a[4] == a[0] {
		t.Fatalf("assignment = %v", a)
	}
}
