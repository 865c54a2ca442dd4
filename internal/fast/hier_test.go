package fast

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

// TestHierConformance runs the shared invariant suite over the
// hierarchical scheduler: validity, determinism, and the bounded-
// scheduler makespan envelope (TotalWork + TotalComm) all hold.
func TestHierConformance(t *testing.T) {
	schedtest.Conformance(t, NewHierarchical(HierOptions{Seed: 1}), true)
}

func hierGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	gs := make(map[string]*dag.Graph)
	g, err := workload.Random(workload.RandomOpts{V: 300, Seed: 9, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	gs["random"] = g
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gs["layered"] = c.ToGraph()
	return gs
}

// TestHierScheduleCSRValid checks the native CSR entry point: the
// schedule passes ValidateFlat, stays under the work+comm envelope, and
// has the same placements Schedule produces.
func TestHierScheduleCSRValid(t *testing.T) {
	h := NewHierarchical(HierOptions{Seed: 1})
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := dag.BuildCSR(g)
			for _, procs := range []int{1, 4, 0} {
				f, err := h.ScheduleCSR(c, procs)
				if err != nil {
					t.Fatal(err)
				}
				if err := sched.ValidateFlat(c, f); err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if env := c.TotalWork() + c.TotalComm(); f.Length() > env {
					t.Fatalf("procs=%d: makespan %v exceeds envelope %v", procs, f.Length(), env)
				}
				if f.Algorithm != h.Name() {
					t.Fatalf("algorithm %q, want %q", f.Algorithm, h.Name())
				}
				want, err := h.Schedule(g, procs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameSchedule(t, g.NumNodes(), want, f)
			}
		})
	}
}

// TestHierDeterminism pins the fixed-seed contract: every pipeline
// stage is deterministic, so repeated runs are bit-identical.
func TestHierDeterminism(t *testing.T) {
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := dag.BuildCSR(g)
			a, err := NewHierarchical(HierOptions{Seed: 42}).ScheduleCSR(c, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewHierarchical(HierOptions{Seed: 42}).ScheduleCSR(c, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, g.NumNodes(), a, b)
		})
	}
}

// TestHierCompiledMatchesSchedule pins the serving-path contract:
// ScheduleCompiled against a precompiled plan is bit-identical to
// Schedule on the raw graph.
func TestHierCompiledMatchesSchedule(t *testing.T) {
	h := NewHierarchical(HierOptions{Seed: 1})
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			cg, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := h.Schedule(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.ScheduleCompiled(cg, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, g.NumNodes(), want, got)
		})
	}
}

// TestHierMaxClustersFold forces the monotone fold by capping the
// cluster count far below the natural cluster count: the schedule must
// stay valid and the contracted graph must respect the cap.
func TestHierMaxClustersFold(t *testing.T) {
	g := hierGraphs(t)["random"]
	c := dag.BuildCSR(g)
	sink := obs.NewRegistry()
	h := NewHierarchical(HierOptions{Seed: 1, MaxClusters: 4, Metrics: sink})
	f, err := h.ScheduleCSR(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if n := sink.Counter("hier.contracted.nodes").Value(); n < 1 || n > 4 {
		t.Fatalf("contracted to %d super-nodes, cap was 4", n)
	}
}

// TestHierContractedCycleCollapse builds the canonical cycle-inducing
// shape: a heavy edge a1→a2 pulls both into one linear cluster while a
// detour a1→x→a2 stays outside, so the contracted multigraph has the
// 2-cycle {a1,a2}→{x}→{a1,a2}. The SCC collapse must absorb it and the
// spliced schedule must still be a legal execution of the original DAG.
func TestHierContractedCycleCollapse(t *testing.T) {
	g := dag.New(3)
	a1 := g.AddNode("a1", 2)
	x := g.AddNode("x", 1)
	a2 := g.AddNode("a2", 1)
	g.MustAddEdge(a1, a2, 10) // dominant: clustered together
	g.MustAddEdge(a1, x, 1)   // detour around the cluster
	g.MustAddEdge(x, a2, 1)
	c := dag.BuildCSR(g)

	sink := obs.NewRegistry()
	h := NewHierarchical(HierOptions{Seed: 1, Metrics: sink})
	f, err := h.ScheduleCSR(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if vc := sink.Counter("hier.clusters").Value(); vc != 2 {
		t.Fatalf("linear clustering produced %d clusters, want 2", vc)
	}
	// The two clusters close a cycle through each other; the collapse
	// must leave a single super-node.
	if n := sink.Counter("hier.contracted.nodes").Value(); n != 1 {
		t.Fatalf("contracted graph has %d nodes, want 1 after SCC collapse", n)
	}
	// One super-node on one processor: serial execution in priority
	// order, no communication.
	if got, want := f.Length(), c.TotalWork(); got != want {
		t.Fatalf("makespan %v, want serialized %v", got, want)
	}
}

// TestHierEmptyGraph checks the empty-graph error paths.
func TestHierEmptyGraph(t *testing.T) {
	h := NewHierarchical(HierOptions{})
	if _, err := h.Schedule(dag.New(0), 2); err == nil {
		t.Fatal("empty graph scheduled")
	}
	if _, err := h.ScheduleCSR(dag.BuildCSR(dag.New(0)), 2); err == nil {
		t.Fatal("empty CSR scheduled")
	}
}

// contractOracle is the graph-building contraction that contract
// replaced, kept as its differential oracle: the same cluster sums,
// SCC collapse and two-level edge deduplication, written into a
// *dag.Graph edge by edge in insertion order.
func contractOracle(c *dag.CSR, cluster []int32, vc int) *dag.Graph {
	v := c.NumNodes()
	off := make([]int32, vc+1)
	for _, cl := range cluster {
		off[cl+1]++
	}
	for i := 0; i < vc; i++ {
		off[i+1] += off[i]
	}
	members := make([]int32, v)
	fill := slices.Clone(off[:vc])
	for n := 0; n < v; n++ {
		cl := cluster[n]
		members[fill[cl]] = int32(n)
		fill[cl]++
	}
	nodeW := make([]float64, vc)
	var efrom, eto []int32
	var ew []float64
	stamp := make([]int32, vc)
	slot := make([]int32, vc)
	for cu := int32(0); cu < int32(vc); cu++ {
		for m := off[cu]; m < off[cu+1]; m++ {
			n := members[m]
			nodeW[cu] += c.NodeW[n]
			for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
				cv := cluster[c.SuccTo[s]]
				if cv == cu {
					continue
				}
				if stamp[cv] == cu+1 {
					ew[slot[cv]] += c.SuccW[s]
					continue
				}
				stamp[cv] = cu + 1
				slot[cv] = int32(len(efrom))
				efrom = append(efrom, cu)
				eto = append(eto, cv)
				ew = append(ew, c.SuccW[s])
			}
		}
	}

	scc, nscc := condense(vc, efrom, eto, nil)
	g := dag.New(nscc)
	sccW := make([]float64, nscc)
	for cl, w := range nodeW {
		sccW[scc[cl]] += w
	}
	for i := 0; i < nscc; i++ {
		g.AddNode(fmt.Sprintf("c%d", i), sccW[i])
	}
	eoff := make([]int32, nscc+1)
	for i := range efrom {
		eoff[scc[efrom[i]]+1]++
	}
	for i := 0; i < nscc; i++ {
		eoff[i+1] += eoff[i]
	}
	eorder := make([]int32, len(efrom))
	efill := slices.Clone(eoff[:nscc])
	for i := range efrom {
		su := scc[efrom[i]]
		eorder[efill[su]] = int32(i)
		efill[su]++
	}
	estamp := make([]int32, nscc)
	eslot := make([]int32, nscc)
	type cedge struct {
		from, to dag.NodeID
		w        float64
	}
	var edges []cedge
	for su := int32(0); su < int32(nscc); su++ {
		for k := eoff[su]; k < eoff[su+1]; k++ {
			i := eorder[k]
			sv := scc[eto[i]]
			if sv == su {
				continue
			}
			if estamp[sv] == su+1 {
				edges[eslot[sv]].w += ew[i]
				continue
			}
			estamp[sv] = su + 1
			eslot[sv] = int32(len(edges))
			edges = append(edges, cedge{dag.NodeID(su), dag.NodeID(sv), ew[i]})
		}
	}
	for _, e := range edges {
		g.MustAddEdge(e.from, e.to, e.w)
	}
	return g
}

// TestContractMatchesGraphOracle pins the CSR contraction to the
// graph-building one: on the splice-balance shapes and the
// FuzzHierEdgeList seeds, the inner plan's CPN-Dominate list and the
// inner FAST schedule equal the oracle graph's node for node. The CSR
// orders each parent's successor slots by child where the graph kept
// insertion order; nothing the inner FAST computes depends on that.
func TestContractMatchesGraphOracle(t *testing.T) {
	var csrs []*dag.CSR
	for _, opts := range spliceShapes {
		c, err := workload.LayeredCSR(opts)
		if err != nil {
			t.Fatal(err)
		}
		csrs = append(csrs, c)
	}
	for _, seed := range hierEdgeListSeeds {
		c, err := dag.StreamEdgeList(strings.NewReader(seed.text))
		if err != nil {
			t.Fatal(err)
		}
		csrs = append(csrs, c)
	}
	for i, c := range csrs {
		l, err := c.ComputeLevelsCompactArena(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prio := buildPriorityOrder(l, c.NumNodes(), nil)
		cluster, vc := linearClusters(c, l, prio, nil)
		if vc > DefaultMaxClusters {
			t.Fatalf("graph %d: %d clusters need the fold this test skips", i, vc)
		}
		og := contractOracle(c, cluster, vc)
		cc, _, err := contract(c, cluster, vc, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.Compile(og)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.CompileCompact(cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.CPNDominate, want.CPNDominate) {
			t.Fatalf("graph %d: inner CPN-Dominate list\n got %v\nwant %v", i, got.CPNDominate, want.CPNDominate)
		}
		for _, procs := range []int{0, 2, 4, 8} {
			ws, err := New(Options{Seed: 1}).ScheduleCompiled(want, procs)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := New(Options{Seed: 1}).ScheduleCompiled(got, procs)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, og.NumNodes(), ws, gs)
		}
	}
}
