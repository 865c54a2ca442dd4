package plan

import (
	"context"

	"fastsched/internal/dag"
	"fastsched/internal/lru"
	"fastsched/internal/obs"
)

// Cache is a content-addressed LRU over compiled graphs, on the
// repository's one sharded LRU (internal/lru). Keys are the graphs'
// SHA-256 content addresses (GraphKey), so a hit is guaranteed to hand
// back artifacts for a bit-identical graph. Compilation is single-flight
// per key: concurrent misses on the same graph compile once and share
// the result. The cache holds at most ~max entries, max/lru.Shards
// (minimum 1) in each shard, and counts plan.compile_hits, _misses,
// _evictions and _shared (waited on another compiler).
type Cache struct {
	c *lru.Cache[*CompiledGraph]
}

// DefaultCacheSize bounds a NewCache(0, ...) cache.
const DefaultCacheSize = 512

// NewCache returns a compilation cache holding at most max compiled
// graphs (0 selects DefaultCacheSize; negative values are clamped to
// one entry per shard). sink receives the plan.* metrics; nil disables
// them at the usual obs zero cost.
func NewCache(max int, sink obs.Sink) *Cache {
	if max == 0 {
		max = DefaultCacheSize
	}
	return &Cache{c: lru.New[*CompiledGraph](max, sink, lru.Names{
		Hits:      "plan.compile_hits",
		Misses:    "plan.compile_misses",
		Evictions: "plan.compile_evictions",
		Shared:    "plan.compile_shared",
	})}
}

// Get returns the compiled form of g, compiling (and caching) on a
// miss. It hashes g to find its content address; callers that already
// hold the key use GetKeyed to avoid hashing twice.
func (c *Cache) Get(g *dag.Graph) (*CompiledGraph, error) {
	return c.GetKeyed(g, GraphKey(g))
}

// GetKeyed is Get with a precomputed content key. The key must be
// GraphKey(g); a mismatched key breaks the cache's bit-identity
// guarantee. A caller that finds g's compilation in flight waits for
// it, however long it takes.
func (c *Cache) GetKeyed(g *dag.Graph, key Key) (*CompiledGraph, error) {
	cg, _, err := c.c.Do(context.Background(), key, func() (*CompiledGraph, error) {
		return CompileKeyed(g, key)
	})
	return cg, err
}

// Peek reports whether key is cached without compiling or touching the
// LRU order (for tests and admission heuristics).
func (c *Cache) Peek(key Key) bool { return c.c.Contains(key) }

// Graphs rebuilds the graph of every cached compilation from its CSR
// (CSR.ToGraph: nodes labelled t<i>, both slot orders as stored), least
// recent first within each shard, so compiling them into a fresh cache
// in this order restores its LRU order under the same content keys.
// The warm-restart snapshot uses it to persist the set of graphs worth
// recompiling on the next start; a serialization that reorders a
// node's children or parents changes that graph's key, so the snapshot
// writes each with dag.WriteJSONSlotOrder.
func (c *Cache) Graphs() []*dag.Graph {
	if c == nil {
		return nil
	}
	var out []*dag.Graph
	c.c.Each(func(_ [32]byte, cg *CompiledGraph) { out = append(out, cg.CSR.ToGraph()) })
	return out
}

// Len returns the total entry count across shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}
