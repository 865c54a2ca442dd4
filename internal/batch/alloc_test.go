package batch

import (
	"testing"

	"fastsched/internal/example"
	"fastsched/internal/lru"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// TestCacheHitPathAllocFree pins the steady-state bound of the result
// cache's hit path: deriving the request key (graph hash + option
// fold) and looking the result up in its shard allocate nothing once
// the key-buffer pool is warm. Cloning the cached schedule for the
// caller is outside the bound — each hit hands out an owned copy by
// contract.
func TestCacheHitPathAllocFree(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	g := example.Graph()
	req := Request{Graph: g, Procs: 2, Algorithm: "fast", Seed: 3}
	c := lru.New[*sched.Schedule](64, nil, lru.Names{})
	c.Put(requestKey(req), sched.New(g.NumNodes()))
	requestKey(req) // warm the key-buffer pool

	if n := testing.AllocsPerRun(100, func() {
		gk := plan.GraphKey(req.Graph)
		key := requestKeyFrom(req, gk)
		if _, ok := c.Get(key); !ok {
			t.Fatal("expected a cache hit")
		}
	}); n != 0 {
		t.Fatalf("warm cache-hit lookup allocates %.1f per run, want 0", n)
	}
}

// TestRequestKeyFromAllocFree pins the "hash once" helper on its own.
func TestRequestKeyFromAllocFree(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	req := Request{Graph: example.Graph(), Procs: 4, Algorithm: "dls", Seed: 9}
	gk := plan.GraphKey(req.Graph)
	requestKeyFrom(req, gk) // warm the buffer pool
	if n := testing.AllocsPerRun(100, func() {
		requestKeyFrom(req, gk)
	}); n != 0 {
		t.Fatalf("requestKeyFrom allocates %.1f per run, want 0", n)
	}
}
