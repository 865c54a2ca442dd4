package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/lru"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// diamond builds the four-node diamond A -> {B, C} -> D.
func diamond() *dag.Graph {
	g := dag.New(4)
	a := g.AddNode("a", 2)
	b := g.AddNode("b", 3)
	c := g.AddNode("c", 4)
	d := g.AddNode("d", 1)
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(a, c, 6)
	g.MustAddEdge(b, d, 7)
	g.MustAddEdge(c, d, 8)
	return g
}

func TestGraphKeyDeterministic(t *testing.T) {
	if GraphKey(diamond()) != GraphKey(diamond()) {
		t.Fatal("identical builds produced different keys")
	}
}

func TestGraphKeySensitivity(t *testing.T) {
	base := GraphKey(diamond())

	w := diamond()
	w.SetWeight(1, 99)
	if GraphKey(w) == base {
		t.Fatal("node weight change did not change the key")
	}

	ew := diamond()
	ew.SetEdgeWeight(0, 1, 99)
	if GraphKey(ew) == base {
		t.Fatal("edge weight change did not change the key")
	}

	extra := diamond()
	extra.MustAddEdge(0, 3, 1)
	if GraphKey(extra) == base {
		t.Fatal("added edge did not change the key")
	}

	// Same edge set inserted in a different order must NOT collide:
	// schedulers' tie-breaks depend on stored adjacency order.
	reordered := dag.New(4)
	a := reordered.AddNode("a", 2)
	b := reordered.AddNode("b", 3)
	c := reordered.AddNode("c", 4)
	d := reordered.AddNode("d", 1)
	reordered.MustAddEdge(a, c, 6) // swapped with a->b
	reordered.MustAddEdge(a, b, 5)
	reordered.MustAddEdge(b, d, 7)
	reordered.MustAddEdge(c, d, 8)
	if GraphKey(reordered) == base {
		t.Fatal("different edge insertion order collided")
	}

	// Twins: the same edges and the same successor lists, but d's
	// parents listed c first. FAST breaks ties in predecessor order.
	twin := dag.New(4)
	a = twin.AddNode("a", 2)
	b = twin.AddNode("b", 3)
	c = twin.AddNode("c", 4)
	d = twin.AddNode("d", 1)
	twin.MustAddEdge(a, b, 5)
	twin.MustAddEdge(a, c, 6)
	twin.MustAddEdge(c, d, 8)
	twin.MustAddEdge(b, d, 7)
	if GraphKey(twin) == base {
		t.Fatal("twins whose parent lists differ collided")
	}
}

func TestCompileMatchesAdHoc(t *testing.T) {
	g := example.Graph()
	cg, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := dag.ComputeLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if cg.Levels.BLevel[i] != l.BLevel[i] || cg.Levels.TLevel[i] != l.TLevel[i] {
			t.Fatalf("node %d: compiled levels differ from ComputeLevels", i)
		}
	}
	cls := dag.Classify(g, l)
	for i, c := range cls {
		if cg.Classes[i] != c {
			t.Fatalf("node %d: compiled class %v, ad hoc %v", i, cg.Classes[i], c)
		}
	}
	wantList := CPNDominateList(dag.BuildCSR(g), l, cls)
	if len(cg.CPNDominate) != len(wantList) {
		t.Fatalf("CPN-Dominate length %d, want %d", len(cg.CPNDominate), len(wantList))
	}
	for i := range wantList {
		if cg.CPNDominate[i] != wantList[i] {
			t.Fatalf("CPN-Dominate[%d] = %d, want %d", i, cg.CPNDominate[i], wantList[i])
		}
	}
	// Blocking = every non-CPN node in ID order.
	j := 0
	for i, c := range cls {
		if c == dag.CPN {
			continue
		}
		if j >= len(cg.Blocking) || cg.Blocking[j] != dag.NodeID(i) {
			t.Fatalf("blocking list mismatch at %d", i)
		}
		j++
	}
	if j != len(cg.Blocking) {
		t.Fatalf("blocking list has %d extra entries", len(cg.Blocking)-j)
	}
}

func TestCompileEmptyGraphErrors(t *testing.T) {
	if _, err := Compile(dag.New(0)); err == nil {
		t.Fatal("compiling an empty graph did not error")
	}
}

// TestScheduleAdapter pins the graph adapter: an empty graph gets the
// scheduler's own error and a cycle the validating compile's, both
// without running the entry; a valid graph reaches the entry with its
// plan and the processor count.
func TestScheduleAdapter(t *testing.T) {
	errEmpty := errors.New("empty")
	ran := false
	entry := func(cg *CompiledGraph, procs int) (*sched.Schedule, error) {
		ran = true
		if cg.CSR.NumNodes() != 4 || procs != 3 {
			t.Fatalf("entry got %d nodes and procs %d", cg.CSR.NumNodes(), procs)
		}
		return sched.New(4), nil
	}
	if _, err := Schedule(dag.New(0), 3, errEmpty, entry); err != errEmpty || ran {
		t.Fatalf("empty graph: err %v, entry ran %v", err, ran)
	}
	cyclic := dag.New(2)
	a, b := cyclic.AddNode("a", 1), cyclic.AddNode("b", 1)
	cyclic.MustAddEdge(a, b, 0)
	cyclic.MustAddEdge(b, a, 0)
	if _, err := Schedule(cyclic, 3, errEmpty, entry); !errors.Is(err, dag.ErrCycle) || ran {
		t.Fatalf("cyclic graph: err %v, entry ran %v", err, ran)
	}
	if s, err := Schedule(diamond(), 3, errEmpty, entry); err != nil || s == nil || !ran {
		t.Fatalf("diamond: err %v, entry ran %v", err, ran)
	}
}

// keyInShard returns a graph whose content key lands in the given
// shard, by perturbing a node weight until the first key byte matches.
func graphInShard(t *testing.T, shard byte, salt float64) (*dag.Graph, Key) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		g := diamond()
		g.SetWeight(0, salt+float64(i))
		k := GraphKey(g)
		if k[0]&(lru.Shards-1) == shard {
			return g, k
		}
	}
	t.Fatal("could not synthesize a graph for the shard")
	return nil, Key{}
}

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(lru.Shards, nil) // one entry per shard
	ga, ka := graphInShard(t, 3, 1000)
	gb, kb := graphInShard(t, 3, 2000)

	cga, err := c.Get(ga)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Peek(ka) {
		t.Fatal("key not cached after Get")
	}
	again, err := c.Get(ga)
	if err != nil {
		t.Fatal(err)
	}
	if again != cga {
		t.Fatal("hit returned a different CompiledGraph pointer")
	}

	// Same shard, different graph: evicts the first (capacity 1/shard).
	if _, err := c.Get(gb); err != nil {
		t.Fatal(err)
	}
	if c.Peek(ka) {
		t.Fatal("LRU did not evict the older same-shard entry")
	}
	if !c.Peek(kb) {
		t.Fatal("newest entry missing after eviction")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}

	// A different shard has independent capacity.
	gc, kc := graphInShard(t, 9, 3000)
	if _, err := c.Get(gc); err != nil {
		t.Fatal(err)
	}
	if !c.Peek(kb) || !c.Peek(kc) {
		t.Fatal("cross-shard insert evicted an unrelated shard's entry")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0, nil)
	g := example.Graph()
	const n = 16
	out := make([]*CompiledGraph, n)
	errs := make([]error, n)
	start := make(chan struct{})
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			<-start
			out[i], errs[i] = c.Get(g)
			done <- i
		}(i)
	}
	close(start)
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if out[i] != out[0] {
			t.Fatal("concurrent getters received different CompiledGraphs")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheHammer drives the cache from 16 goroutines with mixed
// hit/miss/evict traffic against a deliberately tiny capacity, so the
// race detector (tier-1 runs go test -race ./...) sees every lock
// ordering: hits, single-flight joins, publishes, and evictions.
func TestCacheHammer(t *testing.T) {
	c := NewCache(lru.Shards, nil) // one entry per shard: constant evictions
	const workers = 16

	// A pool of graphs shared by every worker so keys collide across
	// goroutines (forcing single-flight joins as well as misses).
	graphs := make([]*dag.Graph, 24)
	rng := rand.New(rand.NewSource(11))
	for i := range graphs {
		g := diamond()
		g.SetWeight(0, 1+float64(rng.Intn(8)))
		g.SetWeight(2, 1+float64(i))
		graphs[i] = g
	}

	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 200; iter++ {
				g := graphs[rng.Intn(len(graphs))]
				cg, err := c.Get(g)
				if err != nil {
					done <- err
					return
				}
				// A hit must hand back a plan for g's content.
				if GraphKey(cg.CSR.ToGraph()) != GraphKey(g) {
					done <- fmt.Errorf("a plan for another graph served graph %p", g)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphKeyAllocFree(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	g := example.Graph()
	GraphKey(g) // warm the scratch pool
	if n := testing.AllocsPerRun(100, func() { GraphKey(g) }); n != 0 {
		t.Fatalf("GraphKey allocates %.1f per call on the warm path, want 0", n)
	}
}

func TestCacheHitAllocFree(t *testing.T) {
	c := NewCache(0, nil)
	g := example.Graph()
	k := GraphKey(g)
	if _, err := c.GetKeyed(g, k); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.GetKeyed(g, k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %.1f per call, want 0", n)
	}
}

// TestCompileCompactMatchesCompile pins "one plan, whatever the
// entry": a plan compiled from a graph's CSR alone equals the plan
// compiled from the graph, table for table, on the plan corpus.
func TestCompileCompactMatchesCompile(t *testing.T) {
	eachCorpusGraph(t, func(name string, g *dag.Graph) {
		want, err := Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := CompileCompact(dag.BuildCSR(g), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) || !slices.Equal(got.Static(), want.Levels.Static) {
			t.Fatalf("%s: levels differ", name)
		}
		if !slices.Equal(got.Classes, want.Classes) {
			t.Fatalf("%s: classes differ", name)
		}
		if !slices.Equal(got.CPNDominate, want.CPNDominate) {
			t.Fatalf("%s: CPN-Dominate list\n got %v\nwant %v", name, got.CPNDominate, want.CPNDominate)
		}
		if !slices.Equal(got.Blocking, want.Blocking) {
			t.Fatalf("%s: blocking list\n got %v\nwant %v", name, got.Blocking, want.Blocking)
		}
	})
	if _, err := CompileCompact(dag.BuildCSR(dag.New(0)), nil); err == nil {
		t.Fatal("compiling an empty CSR did not error")
	}
}

// TestCacheCountersAddUp: 8 goroutines compile from a shared pool of
// graphs through a one-entry-per-shard cache, so hits, single-flight
// waits, compiles and evictions interleave. Every Get is counted once
// (hits + misses + shared == lookups), every compile of a valid graph
// inserts one entry (evictions == misses − Len), and a repeated graph
// is served as a hit.
func TestCacheCountersAddUp(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(lru.Shards, reg)
	graphs := make([]*dag.Graph, 40)
	for i := range graphs {
		graphs[i] = diamond()
		graphs[i].SetWeight(1, 1+float64(i))
	}
	const workers, iters = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				if _, err := c.Get(graphs[rng.Intn(len(graphs))]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := reg.Counter("plan.compile_hits").Value(), reg.Counter("plan.compile_misses").Value()
	shared, evictions := reg.Counter("plan.compile_shared").Value(), reg.Counter("plan.compile_evictions").Value()
	if hits+misses+shared != workers*iters {
		t.Errorf("hits %d + misses %d + shared %d != %d lookups", hits, misses, shared, workers*iters)
	}
	if evictions != misses-int64(c.Len()) || evictions == 0 {
		t.Errorf("evictions %d, want misses %d - len %d, and some", evictions, misses, c.Len())
	}
	c.Get(graphs[0])
	hits = reg.Counter("plan.compile_hits").Value()
	if _, err := c.Get(graphs[0]); err != nil || reg.Counter("plan.compile_hits").Value() != hits+1 {
		t.Errorf("a repeated graph was not served as a hit (err %v)", err)
	}
}

// TestCompileAllocs pins Compile's allocations on a graph built edge
// by edge. Its two adjacency sides agree by construction, so admission
// runs no mirror check: the check's six edge-sized arrays and its
// counting table would add seven.
func TestCompileAllocs(t *testing.T) {
	g := schedtest.RandomLayered(rand.New(rand.NewSource(1)), 100)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Compile(g); err != nil {
			t.Fatal(err)
		}
	}); n > 29 {
		t.Fatalf("Compile allocates %.0f times on a v=%d, e=%d graph, want at most 29", n, g.NumNodes(), g.NumEdges())
	}
}

// TestToGraphKeepsMirrorCheck passes CSRs whose two sides disagree, or
// repeat a (from, to) pair on both, through ToGraph, and through
// ToGraph then Clone. Graph.Validate, ValidatedLevels and Compile must
// each reject every one with the mirror check's error.
func TestToGraphKeepsMirrorCheck(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *dag.CSR)
		want   string
	}{
		{"mirror weight mismatch", func(c *dag.CSR) { c.PredW[0] = 9 },
			"dag: csr: succ/pred mismatch at canonical edge 0"},
		{"mirror endpoint mismatch", func(c *dag.CSR) { c.PredFrom[2] = 0; c.PredW[2] = 4 },
			"dag: csr: succ/pred mismatch at canonical edge 2"},
		// 0 -> 1 becomes a second 0 -> 2 on both sides.
		{"repeated pair", func(c *dag.CSR) { c.SuccTo[0] = 2; c.PredOff[2] = 0 },
			"dag: duplicate edge: 0 -> 2"},
	}
	for _, tc := range cases {
		c, err := dag.StreamEdgeList(strings.NewReader("v 3\nn 1\nn 2\nn 3\ne 0 1 4\ne 0 2 5\ne 1 2 6\n"))
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(c)
		for _, clone := range []bool{false, true} {
			g := c.ToGraph()
			if clone {
				g = g.Clone()
			}
			_, _, levelsErr := g.ValidatedLevels()
			_, compileErr := Compile(g)
			for entry, err := range map[string]error{"Validate": g.Validate(), "ValidatedLevels": levelsErr, "Compile": compileErr} {
				if fmt.Sprint(err) != tc.want {
					t.Errorf("%s (clone %v): %s error %v, want %q", tc.name, clone, entry, err, tc.want)
				}
			}
		}
	}
}
