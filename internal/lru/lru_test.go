package lru

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fastsched/internal/obs"
)

// shardKey builds a key whose first byte pins the shard and whose tail
// disambiguates entries within it.
func shardKey(shard byte, tag byte) [32]byte {
	var k [32]byte
	k[0] = shard
	k[1] = tag
	return k
}

var testNames = Names{Hits: "t.hits", Misses: "t.misses", Evictions: "t.evictions", Shared: "t.shared"}

type counts struct{ hits, misses, evictions, shared int64 }

func countsOf(reg *obs.Registry) counts {
	return counts{
		reg.Counter(testNames.Hits).Value(), reg.Counter(testNames.Misses).Value(),
		reg.Counter(testNames.Evictions).Value(), reg.Counter(testNames.Shared).Value(),
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 2*Shards gives every shard room for two entries; three
	// keys pinned to one shard exercise that shard's LRU order.
	c := New[int](2*Shards, nil, Names{})
	a, b, d := shardKey(7, 'a'), shardKey(7, 'b'), shardKey(7, 'c')
	c.Put(a, 1)
	c.Put(b, 1)
	if _, ok := c.Get(a); !ok {
		t.Fatal("a evicted early")
	}
	c.Put(d, 1) // evicts b (a was just touched)
	if _, ok := c.Get(b); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.Get(d); !ok {
		t.Fatal("c lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestCacheSharding pins the shard selection (first key byte, masked)
// and that pressure in one shard never evicts another shard's entries.
func TestCacheSharding(t *testing.T) {
	c := New[int](Shards, nil, Names{}) // one entry per shard
	for i := 0; i < Shards; i++ {
		c.Put(shardKey(byte(i), 0), 1)
	}
	if c.Len() != Shards {
		t.Fatalf("len = %d, want %d", c.Len(), Shards)
	}
	// Hammer shard 3 with fresh keys: only shard 3's entry may be
	// displaced.
	for tag := byte(1); tag <= 8; tag++ {
		c.Put(shardKey(3, tag), 1)
	}
	if c.Len() != Shards {
		t.Fatalf("len after shard-3 churn = %d, want %d", c.Len(), Shards)
	}
	for i := 0; i < Shards; i++ {
		if i == 3 {
			continue
		}
		if _, ok := c.Get(shardKey(byte(i), 0)); !ok {
			t.Fatalf("churn in shard 3 evicted shard %d's entry", i)
		}
	}
	// A key whose first byte exceeds the shard count wraps via the mask.
	k := shardKey(byte(Shards)+5, 9)
	c.Put(k, 1)
	if got, want := c.shard(k), &c.shards[5]; got != want {
		t.Fatalf("shard(0x%02x) picked shard %p, want %p", k[0], got, want)
	}
}

// TestBoundAndCounters: the bound is max/Shards per shard, at least
// one; Get counts hits and misses, Put counts evictions, Contains
// counts nothing and leaves the order alone.
func TestBoundAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](-5, reg, testNames) // clamped to one per shard
	a, b := shardKey(2, 'a'), shardKey(2, 'b')
	c.Put(a, 1)
	c.Put(a, 2) // a refresh, not an insert
	if v, ok := c.Get(a); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v; want 2, true", v, ok)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("b found before it was put")
	}
	if !c.Contains(a) || c.Contains(b) {
		t.Fatal("Contains disagrees with the entries")
	}
	c.Put(b, 3) // evicts a
	if c.Contains(a) || c.Len() != 1 {
		t.Fatalf("one-per-shard bound not kept: a cached %v, len %d", c.Contains(a), c.Len())
	}
	if got, want := countsOf(reg), (counts{hits: 1, misses: 1, evictions: 1}); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}

// TestContainsKeepsOrder: Contains is a peek, so the entry it finds
// stays least recent and is the one evicted next.
func TestContainsKeepsOrder(t *testing.T) {
	c := New[int](2*Shards, nil, Names{})
	a, b, d := shardKey(4, 'a'), shardKey(4, 'b'), shardKey(4, 'd')
	c.Put(a, 1)
	c.Put(b, 2)
	if !c.Contains(a) {
		t.Fatal("a missing")
	}
	c.Put(d, 3)
	if c.Contains(a) || !c.Contains(b) || !c.Contains(d) {
		t.Fatal("Contains moved a to the front")
	}
}

// TestEachRestoresOrder: Each walks least recent first, so putting its
// entries into a fresh cache in walk order reproduces the LRU order —
// the next insert evicts the same entry it would have in the original.
func TestEachRestoresOrder(t *testing.T) {
	src := New[int](2*Shards, nil, Names{})
	a, b := shardKey(9, 'a'), shardKey(9, 'b')
	src.Put(a, 1)
	src.Put(b, 2)
	src.Put(shardKey(1, 'x'), 3)

	dst := New[int](2*Shards, nil, Names{})
	var walked [][32]byte
	src.Each(func(k [32]byte, v int) {
		walked = append(walked, k)
		dst.Put(k, v)
	})
	if len(walked) != 3 {
		t.Fatalf("Each visited %d entries, want 3", len(walked))
	}
	dst.Put(shardKey(9, 'c'), 4)
	if dst.Contains(a) || !dst.Contains(b) {
		t.Fatalf("after restore and one insert: a cached %v, b cached %v; want a evicted, b kept", dst.Contains(a), dst.Contains(b))
	}
}

func TestDoFillsOnceAndHits(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](Shards, reg, testNames)
	k := shardKey(5, 1)
	fills := 0
	fill := func() (int, error) { fills++; return 42, nil }
	if v, src, err := c.Do(context.Background(), k, fill); v != 42 || src != Miss || err != nil {
		t.Fatalf("first Do = %d, %v, %v; want 42, Miss, nil", v, src, err)
	}
	if v, src, err := c.Do(context.Background(), k, fill); v != 42 || src != Hit || err != nil {
		t.Fatalf("second Do = %d, %v, %v; want 42, Hit, nil", v, src, err)
	}
	if v, ok := c.Get(k); !ok || v != 42 || fills != 1 {
		t.Fatalf("Get after Do = %d, %v with %d fills; want 42, true, 1", v, ok, fills)
	}
	if got, want := countsOf(reg), (counts{hits: 2, misses: 1}); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}

// TestDoFailureNotStored: a failed fill hands its value and error to
// its own caller only; nothing is stored, so the next Do fills again.
func TestDoFailureNotStored(t *testing.T) {
	c := New[int](Shards, nil, Names{})
	k := shardKey(6, 1)
	errPartial := errors.New("partial")
	v, src, err := c.Do(context.Background(), k, func() (int, error) { return 7, errPartial })
	if v != 7 || src != Miss || err != errPartial {
		t.Fatalf("failed Do = %d, %v, %v; want the fill's 7 and error", v, src, err)
	}
	if c.Contains(k) {
		t.Fatal("a failed fill was stored")
	}
	if v, _, err := c.Do(context.Background(), k, func() (int, error) { return 8, nil }); v != 8 || err != nil {
		t.Fatalf("refill = %d, %v", v, err)
	}
}

// waitingCtx closes asked when Do first reads its Done channel, which
// Do does only as it starts to wait on another caller's fill.
type waitingCtx struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// TestDoWaiters: callers that miss during a fill share its value; when
// the fill fails, each runs its own fill and sees only its own result;
// a waiter whose context ends returns that context's error.
func TestDoWaiters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		leadErr error
		cancel  bool
		want    int
		wantSrc Source
		wantErr error
	}{
		{"shared", nil, false, 1, Shared, nil},
		{"leader fails", errors.New("leader's deadline"), false, 2, Miss, nil},
		{"waiter cancelled", nil, true, 0, Miss, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := New[int](Shards, reg, testNames)
			k := shardKey(3, 3)
			filling, release := make(chan struct{}), make(chan struct{})
			leader := make(chan error, 1)
			go func() {
				_, _, err := c.Do(context.Background(), k, func() (int, error) {
					close(filling)
					<-release
					return 1, tc.leadErr
				})
				leader <- err
			}()
			<-filling // the leader's fill is in flight
			base, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			defer cancel()
			ctx := &waitingCtx{Context: base, asked: make(chan struct{})}
			type out struct {
				v   int
				src Source
				err error
			}
			waiter := make(chan out, 1)
			go func() {
				v, src, err := c.Do(ctx, k, func() (int, error) { return 2, nil })
				waiter <- out{v, src, err}
			}()
			<-ctx.asked // the waiter waits on the leader's fill
			if !tc.cancel {
				close(release)
			}
			if got := <-waiter; got.v != tc.want || got.src != tc.wantSrc || got.err != tc.wantErr {
				t.Fatalf("waiter = %+v, want %d %v %v", got, tc.want, tc.wantSrc, tc.wantErr)
			}
			if tc.cancel {
				close(release)
			}
			if err := <-leader; err != tc.leadErr {
				t.Fatalf("leader error %v, want its own %v", err, tc.leadErr)
			}
			cs := countsOf(reg)
			if cs.hits+cs.misses+cs.shared != 2 {
				t.Fatalf("counters %+v do not add up to 2 lookups", cs)
			}
		})
	}
}

// TestHitAllocFree: a warm hit, through Get or Do, allocates nothing.
func TestHitAllocFree(t *testing.T) {
	c := New[*int](64, obs.NewRegistry(), testNames)
	k := shardKey(1, 1)
	x := 1
	c.Put(k, &x)
	fill := func() (*int, error) { return nil, errors.New("unreachable") }
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("expected a hit")
		}
		if _, src, _ := c.Do(context.Background(), k, fill); src != Hit {
			t.Fatal("expected a hit")
		}
	}); n != 0 {
		t.Fatalf("warm hit allocates %.1f per run, want 0", n)
	}
}

// TestCountersAddUp drives one small cache from 8 goroutines with Do
// and Get over a shared key pool, some of whose fills fail, so hits,
// misses, shared waits, failed fills and evictions all interleave. Then
// every lookup is counted exactly once (hits + misses + shared ==
// lookups), evictions == inserts − Len, every value is its key's, and a
// repeated key is served as a hit. ci.sh runs it under -race -count=10.
func TestCountersAddUp(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](2*Shards, reg, testNames)
	const workers, iters, pool = 8, 400, 96
	var lookups, inserts atomic.Int64
	errOdd := errors.New("odd key")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				n := rng.Intn(pool)
				k := shardKey(byte(n), byte(n/Shards))
				lookups.Add(1)
				if rng.Intn(4) == 0 {
					if v, ok := c.Get(k); ok && v != n {
						t.Errorf("Get(%d) = %d", n, v)
					}
					continue
				}
				v, _, err := c.Do(context.Background(), k, func() (int, error) {
					if n%7 == 0 {
						return -1, errOdd
					}
					inserts.Add(1)
					return n, nil
				})
				if (err == nil && v != n) || (err != nil && (err != errOdd || v != -1)) {
					t.Errorf("Do(%d) = %d, %v", n, v, err)
				}
			}
		}(w)
	}
	wg.Wait()
	cs := countsOf(reg)
	if got := cs.hits + cs.misses + cs.shared; got != lookups.Load() {
		t.Errorf("hits %d + misses %d + shared %d = %d, want %d lookups", cs.hits, cs.misses, cs.shared, got, lookups.Load())
	}
	if want := inserts.Load() - int64(c.Len()); cs.evictions != want {
		t.Errorf("evictions %d, want inserts %d - len %d = %d", cs.evictions, inserts.Load(), c.Len(), want)
	}
	if cs.hits == 0 || cs.evictions == 0 {
		t.Errorf("counters %+v: the mix never hit or never evicted", cs)
	}
	k := shardKey(1, 0)
	c.Do(context.Background(), k, func() (int, error) { return 1, nil })
	if _, src, _ := c.Do(context.Background(), k, func() (int, error) { return 1, nil }); src != Hit {
		t.Errorf("a repeated key was served as %v, not a hit", src)
	}
}
