// Package lru is the repository's one cache: a bounded, lock-striped
// LRU over SHA-256 content addresses with an optional single-flight
// fill. It serves the compiled-plan cache, the batch engine's result
// cache and schedd's body index, and counts hits, misses, evictions and
// shared waits for each.
//
// A key's shard is its first byte masked to the shard count. Keys are
// SHA-256 digests, so that byte is uniformly distributed, and capacity
// and lock contention spread evenly. The capacity bound and the LRU
// order are both per shard: a shard holds at most max/Shards entries
// (minimum one) and evicts its own least recent entry past that. What a
// hit returns is what a single-lock LRU would return; striping changes
// only which entry goes under pressure.
package lru

import (
	"context"
	"sync"

	"fastsched/internal/obs"
)

// Shards is the number of lock stripes: a power of two, so a key's
// shard is a mask over its first byte.
const Shards = 16

// Names are the metric names a cache counts under; an empty name is
// not counted.
type Names struct {
	Hits      string // lookups answered from the cache
	Misses    string // lookups answered neither from the cache nor by a shared fill
	Evictions string // entries dropped past a shard's bound
	Shared    string // Do calls answered by another caller's fill
}

// Source says how a Do call was answered.
type Source uint8

const (
	// Miss: the call ran fill itself, or its context ended while it
	// waited on another caller's fill.
	Miss Source = iota
	// Hit: the value was cached.
	Hit
	// Shared: the call waited on another caller's fill and got its value.
	Shared
)

// Cache is a bounded LRU from SHA-256 keys to values of type V. A
// stored value is handed to every reader as is, so callers treat it as
// immutable. Safe for concurrent use.
type Cache[V any] struct {
	shards [Shards]shard[V]

	// Resolved once at construction; nil (and free) without a sink.
	hits, misses, evictions, shared *obs.Counter
}

type shard[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[[32]byte]*entry[V]
	root    entry[V] // sentinel: root.next is the most recent entry, root.prev the least
	flight  map[[32]byte]*call[V]
}

type entry[V any] struct {
	key        [32]byte
	val        V
	prev, next *entry[V]
}

// call is one fill in progress; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool // fill succeeded and val was stored
}

// New returns an empty cache bounded at max entries, counting under
// names in sink (nil disables the counters).
func New[V any](max int, sink obs.Sink, names Names) *Cache[V] {
	perShard := max / Shards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{}
	for i := range c.shards {
		s := &c.shards[i]
		s.max = perShard
		s.entries = make(map[[32]byte]*entry[V])
		s.flight = make(map[[32]byte]*call[V])
		s.root.prev, s.root.next = &s.root, &s.root
	}
	if sink != nil {
		c.hits = counter(sink, names.Hits)
		c.misses = counter(sink, names.Misses)
		c.evictions = counter(sink, names.Evictions)
		c.shared = counter(sink, names.Shared)
	}
	return c
}

func counter(sink obs.Sink, name string) *obs.Counter {
	if name == "" {
		return nil
	}
	return sink.Counter(name)
}

func (c *Cache[V]) shard(key [32]byte) *shard[V] {
	return &c.shards[key[0]&(Shards-1)]
}

// Get returns the value stored under key and marks it most recent. It
// counts a hit or a miss.
func (c *Cache[V]) Get(key [32]byte) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		var zero V
		return zero, false
	}
	s.toFront(e)
	v := e.val
	s.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Put stores v under key as the most recent entry, evicting the
// shard's least recent entries past its bound.
func (c *Cache[V]) Put(key [32]byte, v V) {
	s := c.shard(key)
	s.mu.Lock()
	evicted := s.put(key, v)
	s.mu.Unlock()
	c.evictions.Add(int64(evicted))
}

// Contains reports whether key is cached. It counts nothing and leaves
// the LRU order as it is.
func (c *Cache[V]) Contains(key [32]byte) bool {
	s := c.shard(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	return ok
}

// Do returns the value cached under key, or fills it.
//
// The first caller to miss on a key runs fill and always gets fill's
// value and error back; the value is stored only when the error is
// nil. Callers that miss on the key while that fill runs wait for it
// and share its stored value. A waiter never receives another caller's
// error or value: when the fill fails, each waiter runs fill on its
// own, and stores nothing. A waiter whose ctx ends stops waiting and
// returns ctx.Err(); with a ctx that never ends it waits for the fill.
func (c *Cache[V]) Do(ctx context.Context, key [32]byte, fill func() (V, error)) (V, Source, error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.toFront(e)
		v := e.val
		s.mu.Unlock()
		c.hits.Inc()
		return v, Hit, nil
	}
	if cl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-cl.done:
		case <-ctx.Done():
			c.misses.Inc()
			var zero V
			return zero, Miss, ctx.Err()
		}
		if cl.ok {
			c.shared.Inc()
			return cl.val, Shared, nil
		}
		c.misses.Inc()
		v, err := fill()
		return v, Miss, err
	}
	cl := &call[V]{done: make(chan struct{})}
	s.flight[key] = cl
	s.mu.Unlock()

	c.misses.Inc()
	v, err := fill()
	evicted := 0
	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		cl.val, cl.ok = v, true
		evicted = s.put(key, v)
	}
	s.mu.Unlock()
	close(cl.done)
	c.evictions.Add(int64(evicted))
	return v, Miss, err
}

// Len returns the entry count across shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Each calls fn on every entry, shard by shard and least recent first
// within a shard. Putting the entries into an empty cache of the same
// bound in this order reproduces every shard's LRU order, which is what
// a warm restart needs. fn runs after the shard's lock is released, on
// a copy of the shard taken under it.
func (c *Cache[V]) Each(fn func(key [32]byte, v V)) {
	var held []entry[V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		held = held[:0]
		for e := s.root.prev; e != &s.root; e = e.prev {
			held = append(held, entry[V]{key: e.key, val: e.val})
		}
		s.mu.Unlock()
		for _, e := range held {
			fn(e.key, e.val)
		}
	}
}

// put inserts or refreshes key as the most recent entry and returns how
// many entries it evicted. The caller holds s.mu.
func (s *shard[V]) put(key [32]byte, v V) (evicted int) {
	if e, ok := s.entries[key]; ok {
		e.val = v
		s.toFront(e)
		return 0
	}
	e := &entry[V]{key: key, val: v}
	s.entries[key] = e
	s.link(e)
	for len(s.entries) > s.max {
		old := s.root.prev
		s.unlink(old)
		delete(s.entries, old.key)
		evicted++
	}
	return evicted
}

func (s *shard[V]) toFront(e *entry[V]) {
	if s.root.next != e {
		s.unlink(e)
		s.link(e)
	}
}

// link puts e at the front (most recent end) of the list.
func (s *shard[V]) link(e *entry[V]) {
	e.prev, e.next = &s.root, s.root.next
	e.prev.next, e.next.prev = e, e
}

func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
