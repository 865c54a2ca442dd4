package batch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/lru"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// sameSchedule asserts two schedules are bit-identical: every node on
// the same processor with the same exact start and finish.
func sameSchedule(t *testing.T, want, got *sched.Schedule) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("schedule sizes differ: %d vs %d", want.NumNodes(), got.NumNodes())
	}
	for i := 0; i < want.NumNodes(); i++ {
		n := dag.NodeID(i)
		if want.Of(n) != got.Of(n) {
			t.Fatalf("node %d: %+v vs %+v", n, want.Of(n), got.Of(n))
		}
	}
}

// coldSchedule is the reference path: one fresh scheduler per call,
// exactly what the engine runs on a cache miss.
func coldSchedule(t *testing.T, g *dag.Graph, algo string, seed int64, procs int) *sched.Schedule {
	t.Helper()
	s, err := casch.NewScheduler(algo, seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Schedule(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDoMatchesColdRun(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := schedtest.RandomLayered(rng, 5+rng.Intn(40))
		res := e.Do(context.Background(), Request{Graph: g, Procs: 4, Algorithm: "fast", Seed: 3, NoCache: true})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sameSchedule(t, coldSchedule(t, g, "fast", 3, 4), res.Schedule)
		if res.Makespan != res.Schedule.Length() {
			t.Fatalf("makespan %v != schedule length %v", res.Makespan, res.Schedule.Length())
		}
	}
}

// TestSchedulesAreOwnedByTheCaller: the schedule a cold run hands out
// and every hit's are the caller's own copies, so changing one changes
// no later answer.
func TestSchedulesAreOwnedByTheCaller(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	req := Request{Graph: schedtest.RandomLayered(rand.New(rand.NewSource(3)), 20), Procs: 2}
	first := e.Do(context.Background(), req)
	if first.Err != nil || first.CacheHit {
		t.Fatalf("cold run: err %v, hit %v", first.Err, first.CacheHit)
	}
	want := first.Schedule.Clone()
	first.Schedule.Place(0, 1, 1e9, 2e9)
	hit := e.Do(context.Background(), req)
	if !hit.CacheHit {
		t.Fatal("warm request missed the cache")
	}
	sameSchedule(t, want, hit.Schedule)
	hit.Schedule.Place(0, 1, 1e9, 2e9)
	sameSchedule(t, want, e.Do(context.Background(), req).Schedule)
}

func TestCacheHitIsBitIdenticalAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 4, Metrics: reg})
	defer e.Close()
	g := schedtest.RandomLayered(rand.New(rand.NewSource(11)), 30)
	req := Request{Graph: g, Procs: 3, Algorithm: "fast", Seed: 9}

	first := e.Do(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("cold run reported as cache hit")
	}
	for i := 0; i < 50; i++ {
		res := e.Do(context.Background(), req)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.CacheHit {
			t.Fatalf("request %d missed a warm cache", i)
		}
		sameSchedule(t, first.Schedule, res.Schedule)
	}
	if hits := reg.Counter("batch.cache_hits").Value(); hits != 50 {
		t.Fatalf("cache_hits = %d, want 50", hits)
	}
	if got := reg.Counter("batch.completed").Value(); got != 51 {
		t.Fatalf("completed = %d, want 51", got)
	}
}

func TestConcurrentDuplicatesCoalesceOrHit(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 4, Metrics: reg})
	defer e.Close()
	g := schedtest.RandomLayered(rand.New(rand.NewSource(13)), 200)
	req := Request{Graph: g, Procs: 8, Algorithm: "fast", Seed: 5}

	const n = 32
	results := make([]Result, n)
	done := make(chan int)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i] = e.Do(context.Background(), req)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	want := coldSchedule(t, g, "fast", 5, 8)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		sameSchedule(t, want, res.Schedule)
	}
	hits := reg.Counter("batch.cache_hits").Value()
	coal := reg.Counter("batch.coalesced").Value()
	// Every request but the handful of cold leaders must have been
	// served from the cache or a coalesced in-flight run.
	if hits+coal < n-8 {
		t.Fatalf("cache_hits=%d coalesced=%d: expected at least %d of %d deduplicated", hits, coal, n-8, n)
	}
}

func TestTypedValidationErrors(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	ok := schedtest.Chain(3, 1)

	cyclic := dag.New(2)
	a := cyclic.AddNode("", 1)
	b := cyclic.AddNode("", 1)
	cyclic.MustAddEdge(a, b, 1)
	cyclic.MustAddEdge(b, a, 1)

	badWeight := dag.New(1)
	badWeight.AddNode("", -3)

	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"NilGraph", Request{}, ErrNilGraph},
		{"EmptyGraph", Request{Graph: dag.New(0)}, ErrEmptyGraph},
		{"NegativeDeadline", Request{Graph: ok, Deadline: -time.Second}, ErrBadDeadline},
		{"NegativeBudget", Request{Graph: ok, Budget: -time.Second}, ErrBadBudget},
		{"UnknownAlgorithm", Request{Graph: ok, Algorithm: "nope"}, ErrBadAlgorithm},
		{"CyclicGraph", Request{Graph: cyclic}, ErrBadGraph},
		{"NegativeWeight", Request{Graph: badWeight}, ErrBadGraph},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := e.Submit(ctx, c.req); !errors.Is(err, c.want) {
				t.Fatalf("Submit() error = %v, want %v", err, c.want)
			}
			if res := e.Do(ctx, c.req); !errors.Is(res.Err, c.want) {
				t.Fatalf("Do() error = %v, want %v", res.Err, c.want)
			}
		})
	}
}

func TestBudgetOnNonFASTRejected(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	g := schedtest.Chain(4, 1)
	res := e.Do(context.Background(), Request{Graph: g, Algorithm: "etf", Budget: 10 * time.Millisecond})
	if !errors.Is(res.Err, ErrBadBudget) {
		t.Fatalf("budgeted etf error = %v, want ErrBadBudget", res.Err)
	}
	// The FAST family accepts a budget; budgeted runs bypass the cache.
	res = e.Do(context.Background(), Request{Graph: g, Algorithm: "fast", Budget: 5 * time.Millisecond})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit || res.Coalesced {
		t.Fatal("budgeted run must bypass the cache")
	}
}

func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()
	if _, err := e.Submit(context.Background(), Request{Graph: schedtest.Chain(2, 0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestCancelledContextSurfacesTypedError(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Do(ctx, Request{Graph: schedtest.Chain(5, 1)})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want context.Canceled", res.Err)
	}
}

func TestTrySubmitBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 1, QueueDepth: 1, Metrics: reg})
	defer e.Close()
	g := schedtest.Chain(6, 1)

	// Occupy the single worker with a budgeted anytime search, then
	// fill the single queue slot; the next TrySubmit must shed load. The
	// busy graph is layered: its non-empty blocking list makes the search
	// run out the budget, where a chain's would end at once and free the
	// worker before the queue fills.
	busyGraph := schedtest.RandomLayered(rand.New(rand.NewSource(7)), 30)
	busy, err := e.Submit(context.Background(), Request{Graph: busyGraph, Algorithm: "fast", Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker dequeue the busy job

	var queued <-chan Result
	var full bool
	for i := 0; i < 3; i++ {
		ch, err := e.TrySubmit(context.Background(), Request{ID: fmt.Sprint(i), Graph: g, NoCache: true})
		switch {
		case err == nil:
			queued = ch
		case errors.Is(err, ErrQueueFull):
			full = true
		default:
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never reported full under backpressure")
	}
	if rej := reg.Counter("batch.rejected").Value(); rej == 0 {
		t.Fatal("rejection counter not incremented")
	}
	if r := <-busy; r.Err != nil {
		t.Fatal(r.Err)
	}
	if queued != nil {
		if r := <-queued; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestDeadlinePartialResultKeepsTypedError(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// A large graph with a deadline far too small to finish the search:
	// the FAST family returns its best-so-far schedule plus
	// context.DeadlineExceeded.
	g := schedtest.RandomLayered(rand.New(rand.NewSource(17)), 2000)
	res := e.Do(context.Background(), Request{Graph: g, Procs: 8, Algorithm: "pfast", Deadline: time.Nanosecond})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired request error = %v, want context.DeadlineExceeded", res.Err)
	}
}

// TestDirBatch200BitIdentical is the acceptance gate: a 200-DAG
// directory scheduled concurrently (cache enabled, with duplicate
// files so the hit path is exercised) must produce per-DAG makespans
// bit-identical to sequential single-DAG runs with the same seeds.
func TestDirBatch200BitIdentical(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	const unique = 150
	graphs := make(map[string]*dag.Graph)
	write := func(name string, g *dag.Graph) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := dag.WriteJSON(f, g, name); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for i := 0; i < unique; i++ {
		write(fmt.Sprintf("g%03d.json", i), schedtest.RandomLayered(rng, 4+rng.Intn(30)))
	}
	for i := 0; i < 50; i++ { // duplicates: identical content under new names
		src := graphs[fmt.Sprintf("g%03d.json", i)]
		write(fmt.Sprintf("dup%03d.json", i), src.Clone())
	}

	reg := obs.NewRegistry()
	e := New(Options{Workers: 8, Metrics: reg})
	defer e.Close()
	tmpl := Request{Procs: 4, Algorithm: "fast", Seed: 1}
	results, agg, err := RunDir(context.Background(), e, dir, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Requested != 200 || agg.Succeeded != 200 || agg.Failed != 0 {
		t.Fatalf("aggregate = %+v, want 200/200/0", agg)
	}
	for _, fr := range results {
		if fr.Error != "" {
			t.Fatalf("%s: %s", fr.File, fr.Error)
		}
		// The sequential reference loads the same file: scheduler
		// tie-breaks depend on edge insertion order, so like must be
		// compared with like (see requestKey's doc comment).
		g, err := loadGraph(filepath.Join(dir, fr.File))
		if err != nil {
			t.Fatal(err)
		}
		want := coldSchedule(t, g, "fast", 1, 4)
		if fr.Makespan != want.Length() {
			t.Fatalf("%s: batch makespan %v != sequential %v", fr.File, fr.Makespan, want.Length())
		}
	}
	// The 50 duplicate files must have been served by the cache or a
	// coalesced in-flight leader.
	if agg.CacheHits+agg.Coalesced < 50 {
		t.Fatalf("cache hits %d + coalesced %d < 50 duplicates", agg.CacheHits, agg.Coalesced)
	}
	if e.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain", e.InFlight())
	}
}

func TestRunDirErrors(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, _, err := RunDir(context.Background(), e, t.TempDir(), Request{}); err == nil {
		t.Fatal("empty directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, agg, err := RunDir(context.Background(), e, dir, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failed != 1 || results[0].Error == "" {
		t.Fatalf("malformed file not reported: %+v", results)
	}
}

func TestRequestKeySensitivity(t *testing.T) {
	g := schedtest.Chain(4, 2)
	base := Request{Graph: g, Procs: 2, Algorithm: "fast", Seed: 1}
	key := requestKey(base)

	same := base
	same.Graph = g.Clone()
	if requestKey(same) != key {
		t.Fatal("identical content hashed differently")
	}
	unbounded := base
	unbounded.Procs = 0
	unbounded2 := base
	unbounded2.Procs = -5
	if requestKey(unbounded) != requestKey(unbounded2) {
		t.Fatal("all non-positive processor counts must normalize to one key")
	}

	for name, mutate := range map[string]func(r *Request){
		"Seed":  func(r *Request) { r.Seed = 2 },
		"Procs": func(r *Request) { r.Procs = 3 },
		"Algo":  func(r *Request) { r.Algorithm = "etf" },
		"NodeWeight": func(r *Request) {
			c := g.Clone()
			c.SetWeight(0, 99)
			r.Graph = c
		},
		"EdgeWeight": func(r *Request) {
			c := g.Clone()
			c.SetEdgeWeight(0, 1, 99)
			r.Graph = c
		},
	} {
		m := base
		mutate(&m)
		if requestKey(m) == key {
			t.Fatalf("%s change did not change the key", name)
		}
	}
}

// TestResultCacheCountersAddUp: 6 producers submit from a shared pool
// of requests into a one-entry-per-shard result cache, so hits,
// coalesced waits, runs and evictions interleave. Every cacheable
// request is counted once (hits + misses + coalesced == requests), the
// counters agree with the results' flags, every clean run inserts one
// entry (evictions == misses − Len), and a repeated request is served
// as a hit.
func TestResultCacheCountersAddUp(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 3, CacheSize: lru.Shards, Metrics: reg})
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	graphs := make([]*dag.Graph, 30)
	for i := range graphs {
		graphs[i] = schedtest.RandomLayered(rng, 6+rng.Intn(6))
	}
	const producers, perProducer = 6, 40
	var flagHits, flagCoalesced atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				res := e.Do(context.Background(), Request{Graph: graphs[rng.Intn(len(graphs))], Procs: 2})
				if res.Err != nil {
					t.Error(res.Err)
				}
				if res.CacheHit {
					flagHits.Add(1)
				}
				if res.Coalesced {
					flagCoalesced.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	hits, misses := reg.Counter("batch.cache_hits").Value(), reg.Counter("batch.cache_misses").Value()
	coalesced, evictions := reg.Counter("batch.coalesced").Value(), reg.Counter("batch.cache_evictions").Value()
	if hits+misses+coalesced != producers*perProducer {
		t.Errorf("hits %d + misses %d + coalesced %d != %d requests", hits, misses, coalesced, producers*perProducer)
	}
	if hits != flagHits.Load() || coalesced != flagCoalesced.Load() {
		t.Errorf("counters say %d hits and %d coalesced, results %d and %d", hits, coalesced, flagHits.Load(), flagCoalesced.Load())
	}
	if evictions != misses-int64(e.cache.Len()) || evictions == 0 {
		t.Errorf("evictions %d, want misses %d - len %d, and some", evictions, misses, e.cache.Len())
	}
	req := Request{Graph: graphs[0], Procs: 2}
	e.Do(context.Background(), req)
	if res := e.Do(context.Background(), req); !res.CacheHit {
		t.Error("a repeated request was not served as a hit")
	}
}

// parentTwins returns a random DAG built parent by parent, so every
// parent list ascends, and its twin: the same edges and the same
// successor lists, added in a random interleaving of the nodes'
// successor lists, so the parent lists come out in another order.
func parentTwins(rng *rand.Rand, v int) (*dag.Graph, *dag.Graph) {
	first := schedtest.RandomDAG(rng, v, 0.2)
	twin := dag.New(v)
	for n := range dag.NodeID(v) {
		twin.AddNode("", first.Weight(n))
	}
	next := make([]int, v) // the next successor slot of each node to add
	var open []dag.NodeID  // nodes with successors left to add
	for n := range dag.NodeID(v) {
		if first.OutDegree(n) > 0 {
			open = append(open, n)
		}
	}
	for len(open) > 0 {
		i := rng.Intn(len(open))
		n := open[i]
		e := first.Succ(n)[next[n]]
		twin.MustAddEdge(e.From, e.To, e.Weight)
		if next[n]++; next[n] == first.OutDegree(n) {
			open = append(open[:i], open[i+1:]...)
		}
	}
	return first, twin
}

// TestParentOrderTwinsGetTheirOwnSchedule: twins that differ only in
// the order of their parent lists are different scheduling inputs
// (FAST breaks ties in predecessor order), so the engine must answer
// each with the schedule FAST gives its own graph, even when the other
// twin's plan is already cached.
func TestParentOrderTwinsGetTheirOwnSchedule(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	for i := range 100 {
		first, twin := parentTwins(rng, 12+rng.Intn(20))
		for _, g := range []*dag.Graph{first, twin} {
			res := e.Do(context.Background(), Request{Graph: g, Procs: 3, Algorithm: "fast", Seed: 1, NoCache: true})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			want := coldSchedule(t, g, "fast", 1, 3)
			for n := range dag.NodeID(g.NumNodes()) {
				if res.Schedule.Of(n) != want.Of(n) {
					t.Fatalf("pair %d: node %d placed %+v, want %+v (FAST on the graph itself)", i, n, res.Schedule.Of(n), want.Of(n))
				}
			}
		}
	}
}
