package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fastsched/internal/schedtest"
)

// serveOnce sends one request to h in process.
func serveOnce(h http.Handler, method, path string, body []byte, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// jobOutcome submits body as a job, polls it until it is done, and
// returns the finished envelope and the data of its SSE result event.
func jobOutcome(t *testing.T, h http.Handler, body []byte) (jobEnvelope, []byte) {
	t.Helper()
	rec := serveOnce(h, http.MethodPost, "/v1/jobs", body, "")
	var env jobEnvelope
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.JobID == "" {
		t.Fatalf("job submit: status %d body %s", rec.Code, rec.Body.Bytes())
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		rec = serveOnce(h, http.MethodGet, "/v1/jobs/"+env.JobID, nil, "")
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("poll body does not parse: %v\n%s", err, rec.Body.Bytes())
		}
		if env.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still pending", env.JobID)
		}
	}
	stream := serveOnce(h, http.MethodGet, "/v1/jobs/"+env.JobID+"/stream", nil, "").Body.String()
	_, data, ok := strings.Cut(stream, "event: result\ndata: ")
	if !ok {
		t.Fatalf("stream has no result event:\n%s", stream)
	}
	return env, []byte(strings.TrimSuffix(data, "\n\n"))
}

// indexCounts reads the body index's hit and miss counters.
func indexCounts(s *Server) (hits, misses int64) {
	return s.Metrics().Counter("server.body_index_hits").Value(), s.Metrics().Counter("server.body_index_misses").Value()
}

// distinctBodies returns n submit bodies of small, pairwise different
// graphs.
func distinctBodies(t *testing.T, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	out := make([][]byte, n)
	for i := range out {
		out[i] = submitBody(t, schedtest.RandomLayered(rng, 6+rng.Intn(6)), 2, int64(i))
	}
	return out
}

// postTwice sends body twice, a miss and then a result-cache hit, which
// indexes it.
func postTwice(t *testing.T, h http.Handler, body []byte) []byte {
	t.Helper()
	first := serveOnce(h, http.MethodPost, "/v1/schedule", body, "")
	second := serveOnce(h, http.MethodPost, "/v1/schedule", body, "")
	if first.Code != http.StatusOK || second.Code != http.StatusOK || second.Header().Get("X-Fastsched-Cache") != "hit" {
		t.Fatalf("warming the index: statuses %d, %d (cache %q): %s", first.Code, second.Code,
			second.Header().Get("X-Fastsched-Cache"), second.Body.Bytes())
	}
	return second.Body.Bytes()
}

func TestBodyIndexSkipsNoCacheBodies(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := []byte(`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":2}],"edges":[{"from":0,"to":1,"weight":1}]},"procs":2,"no_cache":true}`)
	for i := 0; i < 3; i++ {
		rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Fastsched-Cache") != "miss" {
			t.Fatalf("no_cache repeat %d: status %d cache %q, want 200 miss", i, rec.Code, rec.Header().Get("X-Fastsched-Cache"))
		}
	}
	if n := s.index.Len(); n != 0 {
		t.Errorf("index holds %d entries after no_cache repeats, want 0", n)
	}
}

// TestBodyIndexRejectsEveryRepeat: a body rejected with 400 or 413 is
// never indexed, so each repeat is rejected again with the same code.
func TestBodyIndexRejectsEveryRepeat(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxBodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := append(submitBody(t, schedtest.Chain(3, 1), 2, 1), bytes.Repeat([]byte(" "), 4096)...)
	for _, c := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"garbage", []byte("{not json"), http.StatusBadRequest, CodeInvalidRequest},
		{"cyclic graph", []byte(`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}}`),
			http.StatusBadRequest, CodeInvalidGraph},
		{"unknown algorithm", []byte(`{"graph":{"nodes":[{"id":0,"weight":1}]},"algorithm":"no-such-scheduler"}`),
			http.StatusBadRequest, CodeInvalidAlgorithm},
		{"oversized", big, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	} {
		for i := 0; i < 3; i++ {
			rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", c.body, "")
			if rec.Code != c.status || decodeError(t, rec.Body.Bytes()).Code != c.code {
				t.Fatalf("%s, repeat %d: status %d body %s, want %d %s", c.name, i, rec.Code, rec.Body.Bytes(), c.status, c.code)
			}
		}
	}
	if hits, _ := indexCounts(s); hits != 0 || s.index.Len() != 0 {
		t.Errorf("rejected bodies: %d index hits, %d entries, want none", hits, s.index.Len())
	}
}

// TestBodyIndexSkipsPartialResults: a deadline that expires mid-search
// yields a 504, which is never indexed, so every repeat runs again.
func TestBodyIndexSkipsPartialResults(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := schedtest.RandomLayered(rand.New(rand.NewSource(6)), 1500)
	body, err := json.Marshal(submitRequest{Graph: graphJSON(t, g), Procs: 4, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
		switch rec.Code {
		case http.StatusGatewayTimeout:
		case http.StatusOK:
			t.Skip("machine scheduled 1500 nodes inside 1ms; deadline not exercised")
		default:
			t.Fatalf("repeat %d: status %d body %s, want 504", i, rec.Code, rec.Body.Bytes())
		}
	}
	if hits, _ := indexCounts(s); hits != 0 || s.index.Len() != 0 {
		t.Errorf("partial results: %d index hits, %d entries, want none", hits, s.index.Len())
	}
	if got := s.Metrics().Counter("batch.admitted").Value(); got != 3 {
		t.Errorf("batch.admitted = %d, want every repeat to reach the engine (3)", got)
	}
}

func TestBodyIndexHitChargesQuota(t *testing.T) {
	clk := newFakeClock()
	s, err := New(Options{Workers: 1, Quota: QuotaConfig{Rate: 1, Burst: 2}, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := submitBody(t, schedtest.Chain(4, 1), 2, 1)
	postTwice(t, s.Handler(), body) // spends both tokens
	rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
	if rec.Code != http.StatusTooManyRequests || decodeError(t, rec.Body.Bytes()).Code != CodeQuotaExhausted {
		t.Fatalf("index hit on an empty bucket: status %d body %s, want 429 %s", rec.Code, rec.Body.Bytes(), CodeQuotaExhausted)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 on an index hit lacks Retry-After")
	}
	if hits, _ := indexCounts(s); hits != 1 {
		t.Errorf("body_index_hits = %d, want 1 (the lookup precedes the quota)", hits)
	}
	clk.advance(time.Second)
	if rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, ""); rec.Code != http.StatusOK {
		t.Errorf("after a refill: status %d, want 200", rec.Code)
	}
}

func TestBodyIndexDrainingAnswersFirst(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := submitBody(t, schedtest.Chain(4, 1), 2, 1)
	postTwice(t, s.Handler(), body)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits, misses := indexCounts(s)
	rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
	if rec.Code != http.StatusServiceUnavailable || decodeError(t, rec.Body.Bytes()).Code != CodeDraining {
		t.Fatalf("indexed body while draining: status %d body %s, want 503 %s", rec.Code, rec.Body.Bytes(), CodeDraining)
	}
	if h, m := indexCounts(s); h != hits || m != misses {
		t.Errorf("a draining server looked the body up: hits %d -> %d, misses %d -> %d", hits, h, misses, m)
	}
}

func TestBodyIndexDisabledWithResultCache(t *testing.T) {
	s, err := New(Options{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := submitBody(t, schedtest.Chain(4, 1), 2, 1)
	for i := 0; i < 3; i++ {
		rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Fastsched-Cache") != "miss" {
			t.Fatalf("repeat %d without caches: status %d cache %q, want 200 miss", i, rec.Code, rec.Header().Get("X-Fastsched-Cache"))
		}
	}
	if hits, misses := indexCounts(s); s.index != nil || hits != 0 || misses != 0 {
		t.Errorf("CacheSize -1: index %v, %d hits, %d misses; want no index", s.index != nil, hits, misses)
	}
}

// TestBodyIndexBoundedByResultCache: every body repeats, so every one
// is indexed, and the index still holds no more than the result cache,
// each entry an exact-length copy of the body sent.
func TestBodyIndexBoundedByResultCache(t *testing.T) {
	const capacity = 32 // a multiple of the LRU's 16 shards, so the bound is exact
	s, err := New(Options{Workers: 2, CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.engine.CacheCapacity(); got != capacity {
		t.Fatalf("result cache capacity %d, want %d", got, capacity)
	}
	for _, body := range distinctBodies(t, 3*capacity) {
		postTwice(t, s.Handler(), body)
	}
	if n := s.index.Len(); n == 0 || n > capacity {
		t.Errorf("index holds %d entries, want 1..%d", n, capacity)
	}
	s.index.Each(func(_ [32]byte, b []byte) {
		if cap(b) != len(b) {
			t.Errorf("an entry of %d bytes keeps a %d-byte buffer", len(b), cap(b))
		}
	})
}

// TestBodyIndexColdStreamStaysEmpty: bodies that never repeat cost a
// hash and no memory, however many of them pass.
func TestBodyIndexColdStreamStaysEmpty(t *testing.T) {
	const capacity = 16
	s, err := New(Options{Workers: 2, CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, body := range distinctBodies(t, 3*capacity) {
		rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Fastsched-Cache") != "miss" {
			t.Fatalf("body %d: status %d cache %q, want 200 miss", i, rec.Code, rec.Header().Get("X-Fastsched-Cache"))
		}
	}
	if n := s.index.Len(); n != 0 {
		t.Errorf("index holds %d entries after a stream of distinct bodies, want 0", n)
	}
	if hits, misses := indexCounts(s); hits != 0 || misses != 3*capacity {
		t.Errorf("%d hits, %d misses, want 0 and %d", hits, misses, 3*capacity)
	}
}

// TestBodyIndexServesWhileQueueFull: an index hit needs no worker, so a
// full engine queue does not shed it.
func TestBodyIndexServesWhileQueueFull(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := submitBody(t, schedtest.Chain(4, 1), 2, 1)
	want := postTwice(t, s.Handler(), body)

	g := schedtest.RandomLayered(rand.New(rand.NewSource(7)), 24)
	depth := s.Metrics().Gauge("batch.queue_depth")
	if _, err := s.engine.TrySubmit(context.Background(), batchBusyRequest(g, 0)); err != nil {
		t.Fatalf("prefill 0: %v", err)
	}
	for start := time.Now(); depth.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("worker never dequeued the busy job")
		}
	}
	if _, err := s.engine.TrySubmit(context.Background(), batchBusyRequest(g, 1)); err != nil {
		t.Fatalf("prefill 1: %v", err)
	}
	if rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", submitBody(t, schedtest.Chain(3, 1), 2, 0), ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fresh body on a full queue: status %d, want 503", rec.Code)
	}
	rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Fastsched-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("indexed body on a full queue: status %d cache %q body %s", rec.Code, rec.Header().Get("X-Fastsched-Cache"), rec.Body.Bytes())
	}
}

// TestBodyIndexConcurrentEviction: clients post a mix of hot and
// distinct bodies against a small cache, so the index is read, filled
// and evicted from at once; every answer to a body is the same bytes.
func TestBodyIndexConcurrentEviction(t *testing.T) {
	const capacity = 16
	s, err := New(Options{Workers: 2, QueueDepth: 64, CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bodies := distinctBodies(t, 40)
	const clients, perClient, hot = 4, 40, 4
	var (
		mu   sync.Mutex
		seen = map[int][]byte{}
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				k := rng.Intn(hot)
				if i%2 == 1 {
					k = hot + rng.Intn(len(bodies)-hot)
				}
				path := "/v1/schedule"
				if i%5 == 4 {
					path = "/v1/jobs"
				}
				rec := serveOnce(s.Handler(), http.MethodPost, path, bodies[k], "")
				if path == "/v1/jobs" {
					if rec.Code != http.StatusAccepted {
						t.Errorf("body %d: job status %d: %s", k, rec.Code, rec.Body.Bytes())
					}
					continue
				}
				if rec.Code != http.StatusOK {
					t.Errorf("body %d: status %d: %s", k, rec.Code, rec.Body.Bytes())
					continue
				}
				mu.Lock()
				if prev, ok := seen[k]; !ok {
					seen[k] = rec.Body.Bytes()
				} else if !bytes.Equal(prev, rec.Body.Bytes()) {
					t.Errorf("body %d answered with different bytes (cache %q)", k, rec.Header().Get("X-Fastsched-Cache"))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if hits, _ := indexCounts(s); hits == 0 {
		t.Error("no index hits: the hot bodies never reached the index")
	}
	if n := s.index.Len(); n > capacity {
		t.Errorf("index holds %d entries, over the capacity %d", n, capacity)
	}
}

// TestBodyIndexCountersAddUp: clients post their own distinct bodies
// twice each, concurrently, into a small cache, so the index is read,
// filled and evicted from at once. Every lookup is counted once (hits +
// misses == posts; the index never shares a fill), every engine answer
// from the result cache inserts one entry (each body has one client, so
// it is absent when its answer lands), evictions == inserts − Len, and
// a repeated body is served as a hit.
func TestBodyIndexCountersAddUp(t *testing.T) {
	const capacity, clients, perClient = 16, 4, 12
	s, err := New(Options{Workers: 2, QueueDepth: 64, CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bodies := distinctBodies(t, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, body := range bodies[c*perClient : (c+1)*perClient] {
				for range 2 {
					if rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, ""); rec.Code != http.StatusOK {
						t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					}
				}
			}
		}(c)
	}
	wg.Wait()
	m := s.Metrics()
	hits, misses := indexCounts(s)
	if hits+misses != 2*clients*perClient {
		t.Errorf("hits %d + misses %d != %d posts", hits, misses, 2*clients*perClient)
	}
	inserts := m.Counter("batch.cache_hits").Value() + m.Counter("batch.coalesced").Value()
	if ev := m.Counter("server.body_index_evictions").Value(); ev != inserts-int64(s.index.Len()) || ev == 0 {
		t.Errorf("evictions %d, want inserts %d - len %d, and some", ev, inserts, s.index.Len())
	}
	body := bodies[0]
	postTwice(t, s.Handler(), body)
	h0, _ := indexCounts(s)
	if rec := serveOnce(s.Handler(), http.MethodPost, "/v1/schedule", body, ""); rec.Code != http.StatusOK {
		t.Fatalf("repeat: status %d", rec.Code)
	}
	if h, _ := indexCounts(s); h != h0+1 {
		t.Errorf("a repeated body was not served as an index hit: hits %d -> %d", h0, h)
	}
}
