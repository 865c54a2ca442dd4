package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastsched/internal/batch"
	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/schedtest"
)

// batchBusyRequest builds a request that keeps an engine worker busy
// for its full budget (a layered graph has a non-empty blocking list,
// so the anytime search runs out the clock).
func batchBusyRequest(g *dag.Graph, i int) batch.Request {
	return batch.Request{ID: "busy", Graph: g, Procs: 2, Seed: int64(i),
		Budget: 300 * time.Millisecond, NoCache: true}
}

// newTestServer builds a server plus an httptest front end and tears
// both down at test end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

func graphJSON(t *testing.T, g *dag.Graph) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf, g, ""); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes()))
}

func submitBody(t *testing.T, g *dag.Graph, procs int, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(submitRequest{Graph: graphJSON(t, g), Procs: procs, Seed: seed})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

func decodeError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body does not parse: %v\n%s", err, body)
	}
	return env.Error
}

func TestScheduleSyncEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := schedtest.RandomLayered(rand.New(rand.NewSource(1)), 30)
	body := submitBody(t, g, 3, 7)

	resp := postJSON(t, ts.URL+"/v1/schedule", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Fastsched-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	first := readBody(t, resp)
	var res scheduleResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("result does not parse: %v", err)
	}
	if res.Makespan <= 0 || len(res.Placements) != g.NumNodes() {
		t.Fatalf("implausible result: makespan=%v placements=%d want %d nodes",
			res.Makespan, len(res.Placements), g.NumNodes())
	}

	// Same request again: cache hit, byte-identical payload.
	resp = postJSON(t, ts.URL+"/v1/schedule", body, "")
	if got := resp.Header.Get("X-Fastsched-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	second := readBody(t, resp)
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit payload differs from cold payload:\n%s\n%s", first, second)
	}
}

// TestProcsCapAtAdmission: a processor count costs memory whatever the
// graph's size, so the engine caps it. batch.MaxProcs is scheduled,
// one more is a 400, and neither allocates more than a few MB.
func TestProcsCapAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	g := schedtest.Chain(3, 1)
	for _, tc := range []struct {
		procs  int
		status int
	}{{batch.MaxProcs, http.StatusOK}, {batch.MaxProcs + 1, http.StatusBadRequest}} {
		body, err := json.Marshal(submitRequest{Graph: graphJSON(t, g), Procs: tc.procs, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postJSON(t, ts.URL+"/v1/schedule", body, "")
		out := readBody(t, resp)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != tc.status {
			t.Fatalf("procs %d: status %d, want %d; body: %s", tc.procs, resp.StatusCode, tc.status, out)
		}
		if tc.status != http.StatusOK {
			if eb := decodeError(t, out); eb.Code != CodeInvalidRequest {
				t.Errorf("procs %d: code %q, want %q", tc.procs, eb.Code, CodeInvalidRequest)
			}
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 8<<20 {
			t.Errorf("procs %d: request allocated %d bytes, limit 8 MB", tc.procs, d)
		}
	}
}

func TestTypedRejections(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 2048})
	g := schedtest.Chain(4, 1)

	check := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		body := readBody(t, resp)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status = %d, want %d; body: %s", name, resp.StatusCode, wantStatus, body)
		}
		if eb := decodeError(t, body); eb.Code != wantCode {
			t.Errorf("%s: code = %q, want %q", name, eb.Code, wantCode)
		}
	}

	check("garbage body", postJSON(t, ts.URL+"/v1/schedule", []byte("{not json"), ""),
		http.StatusBadRequest, CodeInvalidRequest)
	check("missing graph", postJSON(t, ts.URL+"/v1/schedule", []byte(`{"procs":2}`), ""),
		http.StatusBadRequest, CodeInvalidGraph)
	check("cyclic graph", postJSON(t, ts.URL+"/v1/schedule",
		[]byte(`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}}`), ""),
		http.StatusBadRequest, CodeInvalidGraph)
	check("negative deadline", postJSON(t, ts.URL+"/v1/schedule",
		[]byte(`{"graph":{"nodes":[{"id":0,"weight":1}]},"deadline_ms":-5}`), ""),
		http.StatusBadRequest, CodeInvalidRequest)

	big, err := json.Marshal(submitRequest{Graph: graphJSON(t, schedtest.RandomLayered(rand.New(rand.NewSource(2)), 400))})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 2048 {
		t.Fatalf("test graph too small to trip the limit: %d bytes", len(big))
	}
	check("oversized body", postJSON(t, ts.URL+"/v1/schedule", big, ""),
		http.StatusRequestEntityTooLarge, CodeBodyTooLarge)

	bad, err := json.Marshal(struct {
		submitRequest
		Algorithm string `json:"algorithm"`
	}{submitRequest{Graph: graphJSON(t, g)}, "no-such-scheduler"})
	if err != nil {
		t.Fatal(err)
	}
	check("bad algorithm", postJSON(t, ts.URL+"/v1/schedule", bad, ""),
		http.StatusBadRequest, CodeInvalidAlgorithm)

	getResp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	check("GET on schedule", getResp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)

	missing, err := http.Get(ts.URL + "/v1/jobs/j999999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown job", missing, http.StatusNotFound, CodeNotFound)

	route, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown route", route, http.StatusNotFound, CodeNotFound)

	// None of the rejected requests may have reached the engine.
	if got := s.Metrics().Counter("batch.admitted").Value(); got != 0 {
		t.Errorf("batch.admitted = %d after pure rejections, want 0", got)
	}
}

func TestAsyncJobPollAndStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	g := schedtest.RandomLayered(rand.New(rand.NewSource(3)), 24)
	body := submitBody(t, g, 2, 11)

	// The sync result is the reference payload.
	wantBytes := bytes.TrimSpace(readBody(t, postJSON(t, ts.URL+"/v1/schedule", body, "")))

	resp := postJSON(t, ts.URL+"/v1/jobs", body, "")
	acc := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202; body: %s", resp.StatusCode, acc)
	}
	var env jobEnvelope
	if err := json.Unmarshal(acc, &env); err != nil || env.JobID == "" {
		t.Fatalf("bad accept envelope %s: %v", acc, err)
	}

	// Poll until done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + env.JobID)
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, r)
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("poll body does not parse: %v\n%s", err, b)
		}
		if env.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still pending", env.JobID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if env.Error != nil {
		t.Fatalf("job failed: %+v", env.Error)
	}
	got, err := json.Marshal(env.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("async result differs from sync result:\n%s\n%s", got, wantBytes)
	}

	// The stream of a finished job delivers the result event immediately.
	r, err := http.Get(ts.URL + "/v1/jobs/" + env.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	stream := string(readBody(t, r))
	if !strings.Contains(stream, "event: result") {
		t.Fatalf("stream missing result event:\n%s", stream)
	}
	idx := strings.Index(stream, "data: ")
	payload := stream[idx+len("data: "):]
	payload = strings.TrimSpace(payload)
	if payload != string(wantBytes) {
		t.Errorf("stream payload differs from sync result:\n%s\n%s", payload, wantBytes)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if b := readBody(t, r); r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, r.StatusCode, b)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(readBody(t, r), &snap); err != nil || len(snap.Metrics) == 0 {
		t.Fatalf("/metrics is not a JSON snapshot (err %v, %d metrics)", err, len(snap.Metrics))
	}
	r, err = http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	if b := readBody(t, r); !strings.Contains(string(b), "server.requests") {
		t.Errorf("text metrics missing server.requests:\n%s", b)
	}

	// After drain, /readyz flips to 503 while /healthz stays 200 (the
	// process is healthy, just not accepting work).
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, r); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, r); r.StatusCode != http.StatusOK {
		t.Errorf("/healthz after drain = %d, want 200", r.StatusCode)
	}
}

// TestDrainUnderLoad verifies the drain contract: every request
// admitted before the drain completes with a real answer, every
// request after is answered 503 draining with Retry-After, and the
// server's goroutines all exit.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	s, err := New(Options{Workers: 2, QueueDepth: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	rng := rand.New(rand.NewSource(4))
	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		g := schedtest.RandomLayered(rng, 16+rng.Intn(16))
		body := submitBody(t, g, 2, int64(i))
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i, body)
	}
	// Let some requests land, then drain while others are in flight.
	time.Sleep(10 * time.Millisecond)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d, want 200 or 503", i, c)
		}
	}
	// The engine's ledger must balance: everything admitted completed.
	adm := reg.Counter("batch.admitted").Value()
	fin := reg.Counter("batch.completed").Value() + reg.Counter("batch.failed").Value()
	if adm != fin {
		t.Errorf("admitted %d != completed+failed %d after drain", adm, fin)
	}
	if d := reg.Gauge("batch.queue_depth").Value(); d != 0 {
		t.Errorf("queue_depth = %v after drain, want 0", d)
	}

	// New work after the drain is shed with retry guidance.
	resp := postJSON(t, ts.URL+"/v1/schedule", submitBody(t, schedtest.Chain(3, 1), 2, 0), "")
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503; body: %s", resp.StatusCode, b)
	}
	if eb := decodeError(t, b); eb.Code != CodeDraining || !eb.Retryable || eb.Backoff == nil {
		t.Errorf("post-drain error = %+v, want retryable draining with backoff", eb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("post-drain response missing Retry-After header")
	}

	ts.Close()
	waitForGoroutines(t, before)
}

// waitForGoroutines polls for the goroutine count to return to (near)
// the baseline; the grace allows runtime/netpoll housekeeping.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", now, baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobTableBoundsAndEviction(t *testing.T) {
	tab := newJobTable(2)
	a, ok := tab.add("t")
	if !ok {
		t.Fatal("add a")
	}
	b, ok := tab.add("t")
	if !ok {
		t.Fatal("add b")
	}
	// Full of unfinished jobs: reject.
	if _, ok := tab.add("t"); ok {
		t.Fatal("add into full table of unfinished jobs should fail")
	}
	a.complete(&scheduleResponse{})
	c, ok := tab.add("t")
	if !ok {
		t.Fatal("add after one finished should evict it")
	}
	if _, ok := tab.get(a.id); ok {
		t.Error("evicted job still resolvable")
	}
	for _, j := range []*job{b, c} {
		if _, ok := tab.get(j.id); !ok {
			t.Errorf("live job %s not resolvable", j.id)
		}
	}
	if tab.len() != 2 {
		t.Errorf("len = %d, want 2", tab.len())
	}
}

func TestJobIDsUnique(t *testing.T) {
	tab := newJobTable(64)
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		j, ok := tab.add("t")
		if !ok {
			t.Fatal("add")
		}
		if seen[j.id] {
			t.Fatalf("duplicate job id %s", j.id)
		}
		seen[j.id] = true
	}
}

func TestAsyncJobsFlushOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 32})
	rng := rand.New(rand.NewSource(5))
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		body := submitBody(t, schedtest.RandomLayered(rng, 20), 2, int64(i))
		resp := postJSON(t, ts.URL+"/v1/jobs", body, "")
		b := readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, b)
		}
		var env jobEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, env.JobID)
	}
	// Drain must flush every accepted job to completion.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var env jobEnvelope
		if err := json.Unmarshal(readBody(t, r), &env); err != nil {
			t.Fatal(err)
		}
		if env.Status != "done" {
			t.Errorf("job %s after drain: status %q, want done", id, env.Status)
		}
		if env.Error != nil {
			t.Errorf("job %s failed: %+v", id, env.Error)
		}
	}
	if v := s.Metrics().Gauge("server.jobs_live").Value(); v != 0 {
		t.Errorf("jobs_live = %v after drain, want 0", v)
	}
}

func TestPerRequestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// A 1ms deadline on a large random graph expires mid-search. The
	// graph is TestBodyIndexSkipsPartialResults's: 400 nodes schedule
	// inside 1ms.
	g := schedtest.RandomLayered(rand.New(rand.NewSource(6)), 1500)
	b, err := json.Marshal(submitRequest{Graph: graphJSON(t, g), Procs: 4, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/schedule", b, "")
	body := readBody(t, resp)
	// Tiny machines may still finish inside 1ms; both outcomes are
	// legal, but an expiry must be typed as deadline_exceeded.
	switch resp.StatusCode {
	case http.StatusOK:
		t.Skip("machine scheduled 1500 nodes inside 1ms; deadline not exercised")
	case http.StatusGatewayTimeout:
		if eb := decodeError(t, body); eb.Code != CodeDeadlineExceeded || !eb.Retryable {
			t.Errorf("error = %+v, want retryable deadline_exceeded", eb)
		}
	default:
		t.Fatalf("status = %d, want 200 or 504; body: %s", resp.StatusCode, body)
	}
}

func TestQueueFullMaps503WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	// Jam the worker and the queue with slow budgeted submits directly
	// on the engine, then hit the HTTP path.
	g := schedtest.RandomLayered(rand.New(rand.NewSource(7)), 24)
	ctx := context.Background()
	depth := s.Metrics().Gauge("batch.queue_depth")
	if _, err := s.engine.TrySubmit(ctx, batchBusyRequest(g, 0)); err != nil {
		t.Fatalf("prefill 0: %v", err)
	}
	// Wait for the worker to dequeue the busy job so the next submit
	// occupies the queue slot rather than racing for the worker.
	for start := time.Now(); depth.Value() != 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("worker never dequeued the busy job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.engine.TrySubmit(ctx, batchBusyRequest(g, 1)); err != nil {
		t.Fatalf("prefill 1: %v", err)
	}
	resp := postJSON(t, ts.URL+"/v1/schedule", submitBody(t, schedtest.Chain(3, 1), 2, 0), "")
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", resp.StatusCode, b)
	}
	if eb := decodeError(t, b); eb.Code != CodeQueueFull || !eb.Retryable || eb.RetryAfterMS != 2000 {
		t.Errorf("error = %+v, want retryable queue_full with retry_after_ms=2000", eb)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if v := s.Metrics().Counter("server.rejected_queue_full").Value(); v != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", v)
	}
}

// TestOversizedBodyAlwaysRejected: the body is read whole, so a body
// over the limit is 413 even when a complete JSON value ends inside the
// limit and the rest is trailing bytes.
func TestOversizedBodyAlwaysRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 2048})
	body := append(submitBody(t, schedtest.Chain(3, 1), 2, 1), bytes.Repeat([]byte(" "), 4096)...)
	resp := postJSON(t, ts.URL+"/v1/schedule", body, "")
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || decodeError(t, b).Code != CodeBodyTooLarge {
		t.Fatalf("status %d body %s, want 413 %s", resp.StatusCode, b, CodeBodyTooLarge)
	}
	if got := s.Metrics().Counter("server.rejected_oversized").Value(); got != 1 {
		t.Errorf("server.rejected_oversized = %d, want 1", got)
	}
}

// TestChunkedBodyDecodes: a body without a Content-Length (chunked)
// is read past the initial buffer and served like the same body sent
// with one.
func TestChunkedBodyDecodes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := submitBody(t, schedtest.RandomLayered(rand.New(rand.NewSource(9)), 60), 2, 3)
	want := readBody(t, postJSON(t, ts.URL+"/v1/schedule", body, ""))
	// A reader of unknown length makes the client send the body chunked.
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("chunked body: status %d, payload differs:\n%s\n%s", resp.StatusCode, got, want)
	}
}
