package batch

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// resultKey is the content address of one scheduling request: a
// SHA-256 over the full scheduling input. Two requests with equal keys
// are guaranteed to describe the same scheduling problem, so their
// (deterministic) results are interchangeable.
type resultKey [32]byte

// requestKey derives the content-addressed cache key of a request.
// The graph — the expensive part of the input — is hashed exactly once
// per request via plan.GraphKey, the same digest that addresses the
// compilation cache; requestKeyFrom then folds in the scalar options
// with a second, cheap hash over 56 bytes plus the algorithm name.
//
// Labels are excluded: they never influence a schedule. The
// per-request deadline is excluded too — a request that finishes
// inside its deadline is bit-identical to an unbounded one, and
// partial (expired) results are never cached. plan.GraphKey hashes the
// adjacency in *stored* order, not canonicalized: the schedulers'
// tie-breaks (and FAST's random transfer sequence) depend on the order
// edges were inserted, so two graphs with the same edge set but
// different insertion orders can legally schedule differently.
func requestKey(req Request) resultKey {
	return requestKeyFrom(req, plan.GraphKey(req.Graph))
}

// keyBufPool recycles requestKeyFrom's serialization buffers so the
// warm lookup path allocates nothing.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// requestKeyFrom is requestKey with the graph digest already in hand
// ("hash once, use for both caches").
func requestKeyFrom(req Request, gk plan.Key) resultKey {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, req.Algorithm...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Seed))
	procs := req.Procs
	if procs <= 0 {
		procs = 0 // every non-positive count means "unbounded"
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(procs))
	buf = append(buf, gk[:]...)
	k := resultKey(sha256.Sum256(buf))
	*bp = buf
	keyBufPool.Put(bp)
	return k
}

// cacheShards stripes an LRU. Power of two so the shard index is a mask
// over the key's first byte — which is uniformly distributed (SHA-256
// output), so capacity and lock contention spread evenly across shards
// instead of serializing every worker behind one mutex.
const cacheShards = 16

// LRU is a bounded, lock-striped LRU over SHA-256-keyed values: the
// engine's result cache and schedd's body index. Stored values are
// immutable by convention: the engine only ever hands out clones of a
// cached schedule, and schedd writes a cached body without touching it.
// The capacity bound is enforced per shard at max/cacheShards (minimum
// 1), and LRU order is likewise per shard; what a hit returns is
// unchanged from a single-lock LRU — the striping only relaxes *which*
// entry is evicted under pressure, never the bit-identity of a hit.
type LRU[V any] struct {
	shards [cacheShards]lruShard[V]
}

type lruShard[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[[32]byte]*list.Element
	order   *list.List // front = most recent
}

type lruEntry[V any] struct {
	key [32]byte
	val V
}

// NewLRU returns an empty LRU bounded at max entries.
func NewLRU[V any](max int) *LRU[V] {
	perShard := max / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &LRU[V]{}
	for i := range c.shards {
		c.shards[i] = lruShard[V]{
			max:     perShard,
			entries: make(map[[32]byte]*list.Element),
			order:   list.New(),
		}
	}
	return c
}

func (c *LRU[V]) shard(key [32]byte) *lruShard[V] {
	return &c.shards[key[0]&(cacheShards-1)]
}

// Get returns the value stored under key and marks it most recent.
func (c *LRU[V]) Get(key [32]byte) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores v under key as the most recent entry, evicting the
// shard's least recent entries past its bound.
func (c *LRU[V]) Put(key [32]byte, v V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&lruEntry[V]{key: key, val: v})
	for s.order.Len() > s.max {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len returns the current entry count across shards; 0 for a nil LRU.
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Each calls fn on every entry, shard by shard and most recent first
// within a shard, holding that shard's lock.
func (c *LRU[V]) Each(fn func(key [32]byte, v V)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*lruEntry[V])
			fn(ent.key, ent.val)
		}
		s.mu.Unlock()
	}
}

// flightGroup deduplicates concurrent identical requests: the first
// joiner of a key becomes the leader and runs the scheduling; later
// joiners wait for the leader's published result. A minimal in-package
// single-flight (the module is dependency-free by policy). Flight
// entries are transient — they live only while a run is in progress —
// so a single mutex stays uncontended and the single-flight semantics
// are untouched by the result cache's striping.
type flightGroup struct {
	mu    sync.Mutex
	calls map[resultKey]*flightCall
}

type flightCall struct {
	ready chan struct{} // closed by the leader in leave
	sched *sched.Schedule
	err   error
	// joined counts waiters for the stats in tests.
	joined int
	at     time.Time
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[resultKey]*flightCall)}
}

// join registers interest in key. The first caller gets leader == true
// and must eventually call leave with the same call; others receive the
// leader's call to wait on.
func (f *flightGroup) join(key resultKey) (leader bool, c *flightCall) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		c.joined++
		return false, c
	}
	c = &flightCall{ready: make(chan struct{}), at: time.Now()}
	f.calls[key] = c
	return true, c
}

// leave publishes the leader's result (already stored in c) and wakes
// every waiter.
func (f *flightGroup) leave(key resultKey, c *flightCall) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.ready)
}
