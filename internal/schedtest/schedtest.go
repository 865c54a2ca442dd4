// Package schedtest provides a conformance suite shared by the tests of
// every scheduling algorithm in this repository: random task-graph
// generation and the invariants any correct scheduler must uphold
// (validity against the DAG, determinism, processor bounds, sane
// behaviour on degenerate graphs).
package schedtest

import (
	"fmt"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// RandomLayered builds a random layered DAG with v nodes: layers of
// width 1..4, each node wired to 1..3 nodes in earlier layers, node
// weights in [1,9] and edge weights in [0,19].
func RandomLayered(rng *rand.Rand, v int) *dag.Graph {
	g := dag.New(v)
	var layers [][]dag.NodeID
	placed := 0
	for placed < v {
		width := 1 + rng.Intn(4)
		if placed+width > v {
			width = v - placed
		}
		layer := make([]dag.NodeID, 0, width)
		for i := 0; i < width; i++ {
			layer = append(layer, g.AddNode("", 1+float64(rng.Intn(9))))
			placed++
		}
		layers = append(layers, layer)
	}
	for li := 1; li < len(layers); li++ {
		for _, n := range layers[li] {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				src := layers[rng.Intn(li)]
				p := src[rng.Intn(len(src))]
				_ = g.AddEdge(p, n, float64(rng.Intn(20)))
			}
		}
	}
	return g
}

// Chain returns a linear chain of n unit-weight nodes with the given
// communication cost on every edge.
func Chain(n int, comm float64) *dag.Graph {
	g := dag.New(n)
	prev := dag.None
	for i := 0; i < n; i++ {
		id := g.AddNode("", 1)
		if prev != dag.None {
			g.MustAddEdge(prev, id, comm)
		}
		prev = id
	}
	return g
}

// ForkJoin returns an entry node fanning out to width children that all
// join into one exit node.
func ForkJoin(width int, comm float64) *dag.Graph {
	g := dag.New(width + 2)
	entry := g.AddNode("fork", 1)
	exit := dag.None
	mids := make([]dag.NodeID, width)
	for i := range mids {
		mids[i] = g.AddNode("", 2)
		g.MustAddEdge(entry, mids[i], comm)
	}
	exit = g.AddNode("join", 1)
	for _, m := range mids {
		g.MustAddEdge(m, exit, comm)
	}
	return g
}

// RandomDAG builds a sparse unstructured random DAG: every pair i < j
// is wired with probability density, node weights in [1,9] and edge
// weights in [0,9]. Unlike RandomLayered there is no layer discipline,
// so antichains span the whole graph — the adversarial shape for
// schedulers tuned to layered inputs.
func RandomDAG(rng *rand.Rand, v int, density float64) *dag.Graph {
	g := dag.New(v)
	ids := make([]dag.NodeID, v)
	for i := 0; i < v; i++ {
		ids[i] = g.AddNode("", 1+float64(rng.Intn(9)))
	}
	for i := 0; i < v; i++ {
		for j := i + 1; j < v; j++ {
			if rng.Float64() < density {
				g.MustAddEdge(ids[i], ids[j], float64(rng.Intn(10)))
			}
		}
	}
	return g
}

// AddShuffledEdges wires each pair a < b of g's nodes with probability
// density and inserts the drawn edges in shuffled order, each weighted
// by weight(). Successor lists then are not sorted by child, which no
// generator above gives, and parent lists do not ascend.
func AddShuffledEdges(rng *rand.Rand, g *dag.Graph, density float64, weight func() float64) {
	v := g.NumNodes()
	var edges [][2]int
	for a := range v {
		for b := a + 1; b < v; b++ {
			if rng.Float64() < density {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	rng.Shuffle(len(edges), func(x, y int) { edges[x], edges[y] = edges[y], edges[x] })
	for _, e := range edges {
		g.MustAddEdge(dag.NodeID(e[0]), dag.NodeID(e[1]), weight())
	}
}

// CorpusInstance is one seeded workload of the oracle corpus.
type CorpusInstance struct {
	// Name identifies the instance (family plus seed) in test failures.
	Name string
	// Family is "layered", "forkjoin" or "random".
	Family string
	Seed   int64
	Graph  *dag.Graph
	// Procs is the processor count the instance is solved on — chosen
	// per family so the exact solver proves optimality within test
	// budgets.
	Procs int
}

// OracleCorpus returns the pinned v ≈ 20–25 instance set behind the
// wide optimality-boxing suite: five layered DAGs (v = 25, 2 procs),
// five communication-weighted fork-joins (v = 20–25, 4 procs), and
// five sparse unstructured random DAGs (v = 22, 2 procs). Seeds and
// shapes are curated so internal/optimal proves every true optimum
// within milliseconds-to-tens-of-milliseconds (calibrated by expansion
// count, so the suite also survives -race slowdowns); the corpus is
// fully deterministic across runs.
func OracleCorpus() []CorpusInstance {
	var out []CorpusInstance
	for _, seed := range []int64{1, 2, 3, 4, 7} {
		g := RandomLayered(rand.New(rand.NewSource(seed)), 25)
		out = append(out, CorpusInstance{
			Name:   fmt.Sprintf("layered/v25/seed%d", seed),
			Family: "layered", Seed: seed, Graph: g, Procs: 2,
		})
	}
	// Width + entry and exit = v; comm spread over the spokes makes
	// colocation vs distribution a real decision. The (width, comm)
	// pairs avoid the hard cells (e.g. width 23 with comm 2, 4 or 6
	// need millions of expansions).
	for _, fc := range []struct {
		width int
		comm  float64
	}{{18, 3}, {18, 6}, {20, 5}, {23, 3}, {23, 7}} {
		g := ForkJoin(fc.width, fc.comm)
		out = append(out, CorpusInstance{
			Name:   fmt.Sprintf("forkjoin/w%dc%g", fc.width, fc.comm),
			Family: "forkjoin", Seed: int64(fc.width), Graph: g, Procs: 4,
		})
	}
	for _, seed := range []int64{1, 4, 6, 7, 8} {
		g := RandomDAG(rand.New(rand.NewSource(seed)), 22, 0.15)
		out = append(out, CorpusInstance{
			Name:   fmt.Sprintf("random/v22/seed%d", seed),
			Family: "random", Seed: seed, Graph: g, Procs: 2,
		})
	}
	return out
}

// Independent returns n edge-free nodes with weights 1..n — the
// degenerate "embarrassingly parallel" graph every scheduler must
// handle without tripping over missing precedence structure.
func Independent(n int) *dag.Graph {
	g := dag.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("", float64(1+i%4))
	}
	return g
}

// ScheduleFunc is the shape the conformance suite exercises: schedule g
// on procs processors and return the schedule plus the graph it must be
// validated against. Plain schedulers return g itself; transforming
// schedulers (task duplication) return their derived graph, whose nodes
// the schedule is indexed by.
type ScheduleFunc func(g *dag.Graph, procs int) (*dag.Graph, *sched.Schedule, error)

// Adapt wraps a sched.Scheduler as a ScheduleFunc that validates
// against the input graph.
func Adapt(s sched.Scheduler) ScheduleFunc {
	return func(g *dag.Graph, procs int) (*dag.Graph, *sched.Schedule, error) {
		out, err := s.Schedule(g, procs)
		return g, out, err
	}
}

// graphCase is one fixed-graph conformance case. Validity of the
// schedule against the eval graph is always checked; check adds
// case-specific invariants on top (orig is the input graph, eval the
// graph the schedule is indexed by).
type graphCase struct {
	name  string
	build func() *dag.Graph
	procs int
	check func(t *testing.T, orig, eval *dag.Graph, out *sched.Schedule)
}

// graphCases is the table of degenerate graphs every scheduler must
// survive. Bounds are computed on the input graph: they stay valid for
// transforming schedulers because every original task still runs at
// least once and duplication never relaxes a dependence chain.
var graphCases = []graphCase{
	{
		name:  "SingleNode",
		build: func() *dag.Graph { g := dag.New(1); g.AddNode("solo", 3); return g },
		procs: 2,
		check: func(t *testing.T, orig, eval *dag.Graph, out *sched.Schedule) {
			if out.Length() != 3 {
				t.Fatalf("length = %v, want 3", out.Length())
			}
		},
	},
	{
		name:  "ChainStaysSequential",
		build: func() *dag.Graph { return Chain(10, 5) },
		procs: 4,
		check: func(t *testing.T, orig, eval *dag.Graph, out *sched.Schedule) {
			// A chain cannot beat serial execution; any sane scheduler also
			// avoids paying communication on every hop, so length must be at
			// most serial + all comm and at least serial.
			serial := orig.TotalWork()
			if out.Length() < serial-1e-9 {
				t.Fatalf("chain scheduled in %v < serial %v", out.Length(), serial)
			}
			if out.Length() > serial+orig.TotalComm()+1e-9 {
				t.Fatalf("chain scheduled in %v, worse than maximally-communicating bound", out.Length())
			}
		},
	},
	{
		name:  "ForkJoinValid",
		build: func() *dag.Graph { return ForkJoin(8, 1) },
		procs: 4,
	},
	{
		name:  "WideIndependent",
		build: func() *dag.Graph { return Independent(12) },
		procs: 3,
		check: func(t *testing.T, orig, eval *dag.Graph, out *sched.Schedule) {
			// No edges: length can never exceed serial execution, and the
			// area bound holds on whatever processors were used.
			if out.Length() > orig.TotalWork()+1e-9 {
				t.Fatalf("independent tasks scheduled in %v > serial %v", out.Length(), orig.TotalWork())
			}
			if used := out.ProcsUsed(); used > 0 && out.Length() < orig.TotalWork()/float64(used)-1e-9 {
				t.Fatalf("length %v beats the area bound on %d procs", out.Length(), used)
			}
		},
	},
	{
		name: "ZeroCommGraph",
		build: func() *dag.Graph {
			rng := rand.New(rand.NewSource(99))
			g := RandomLayered(rng, 30)
			for _, e := range g.Edges() {
				g.SetEdgeWeight(e.From, e.To, 0)
			}
			return g
		},
		procs: 4,
	},
}

// Conformance runs the shared invariant suite against s.
//
// bounded states whether the scheduler honours the procs argument (DSC
// and MD are unbounded by definition and exempt from the processor-cap
// check).
func Conformance(t *testing.T, s sched.Scheduler, bounded bool) {
	t.Helper()
	ConformanceFunc(t, s.Name(), bounded, Adapt(s))
}

// ConformanceFunc runs the shared invariant suite against an arbitrary
// scheduling function (see ScheduleFunc); name is reported in place of
// sched.Scheduler.Name.
func ConformanceFunc(t *testing.T, name string, bounded bool, f ScheduleFunc) {
	t.Helper()

	t.Run("EmptyGraphRejected", func(t *testing.T) {
		if _, _, err := f(dag.New(0), 2); err == nil {
			t.Fatal("empty graph accepted")
		}
	})

	for _, c := range graphCases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			eval, out, err := f(g, c.procs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Validate(eval, out); err != nil {
				t.Fatal(err)
			}
			if bounded && out.ProcsUsed() > c.procs {
				t.Fatalf("used %d of %d procs", out.ProcsUsed(), c.procs)
			}
			if c.check != nil {
				c.check(t, g, eval, out)
			}
		})
	}

	t.Run("RandomGraphsValid", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 25; trial++ {
			g := RandomLayered(rng, 2+rng.Intn(60))
			procs := 1 + rng.Intn(6)
			eval, out, err := f(g, procs)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := sched.Validate(eval, out); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if bounded && out.ProcsUsed() > procs {
				t.Fatalf("trial %d: used %d of %d procs", trial, out.ProcsUsed(), procs)
			}
			if out.Length() > g.TotalWork()+g.TotalComm()+1e-9 {
				t.Fatalf("trial %d: length %v beyond any reasonable bound", trial, out.Length())
			}
			// Two universal lower bounds: the computation-only critical
			// path (no schedule can shorten a dependence chain) and the
			// area bound (total work over processors actually used). Both
			// are computed on the input graph and survive duplication:
			// clones only add work and never shorten a chain.
			l, err := dag.ComputeLevels(g)
			if err != nil {
				t.Fatal(err)
			}
			compCP := 0.0
			for i := 0; i < g.NumNodes(); i++ {
				if l.Static[dag.NodeID(i)] > compCP {
					compCP = l.Static[dag.NodeID(i)]
				}
			}
			if out.Length() < compCP-1e-9 {
				t.Fatalf("trial %d: length %v beats the dependence bound %v", trial, out.Length(), compCP)
			}
			if used := out.ProcsUsed(); used > 0 && out.Length() < g.TotalWork()/float64(used)-1e-9 {
				t.Fatalf("trial %d: length %v beats the area bound", trial, out.Length())
			}
		}
	})

	t.Run("Deterministic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		g := RandomLayered(rng, 40)
		evalA, a, err := f(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		evalB, b, err := f(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if evalA.NumNodes() != evalB.NumNodes() {
			t.Fatalf("eval graphs differ: %d vs %d nodes", evalA.NumNodes(), evalB.NumNodes())
		}
		for i := 0; i < evalA.NumNodes(); i++ {
			n := dag.NodeID(i)
			if a.Of(n) != b.Of(n) {
				t.Fatalf("node %d: %+v vs %+v", n, a.Of(n), b.Of(n))
			}
		}
	})

	t.Run("NameNonEmpty", func(t *testing.T) {
		if name == "" {
			t.Fatal("scheduler has no name")
		}
	})
}
