// Package server is the long-running serving layer: an HTTP JSON API
// over the internal/batch engine, engineered for crash tolerance and
// graceful operations. It adds what the engine alone does not have —
// per-tenant token-bucket quotas with weighted fairness, admission
// control that maps the engine's TrySubmit load-shedding onto
// 503 + Retry-After with exponential-backoff hints, typed JSON errors
// for every failure, oversized/garbage payload rejection before the
// engine sees a byte, a body index that answers a repeated request
// with the bytes already sent for it, an asynchronous job API with
// polling and SSE-style streaming, health/readiness/metrics endpoints
// wired to internal/obs, graceful drain (stop admission, flush
// in-flight work, cut a final snapshot), and warm-restart persistence
// of the result and plan caches keyed by their existing SHA-256
// content digests.
//
// Robustness posture: the snapshot is an optimization, never a
// dependency — a missing, stale, or corrupt snapshot costs cold runs,
// not wrong answers (corrupt files are checksummed, quarantined, and
// served past). Every admitted request completes even under drain;
// everything rejected is rejected with a typed, retryable-annotated
// error the client can act on.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastsched/internal/batch"
	"fastsched/internal/dag"
	"fastsched/internal/jsonscan"
	"fastsched/internal/lru"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
)

// Options configures a Server.
type Options struct {
	// Workers, QueueDepth, CacheSize and PlanCacheSize pass through to
	// the batch engine (see batch.Options). CacheSize also bounds the
	// body index, and a negative CacheSize disables it with the result
	// cache.
	Workers       int
	QueueDepth    int
	CacheSize     int
	PlanCacheSize int
	// Quota is the per-tenant admission policy; the zero value disables
	// quotas.
	Quota QuotaConfig
	// MaxBodyBytes bounds every request body (default 8 MiB). Oversized
	// bodies are rejected with 413 before they reach the graph parser.
	MaxBodyBytes int64
	// MaxJobs bounds the async job table (default 4096).
	MaxJobs int
	// SnapshotPath, when set, enables warm-restart persistence: the
	// server restores caches from this file at startup and snapshots to
	// it on drain (and every SnapshotEvery, when positive).
	SnapshotPath  string
	SnapshotEvery time.Duration
	// RetryAfter is the hint attached to load-shed rejections
	// (default 1s).
	RetryAfter time.Duration
	// Metrics receives the server.*, batch.* and plan.* metrics; nil
	// creates a private registry (the /metrics endpoint always works).
	Metrics *obs.Registry
	// Now is the clock (tests inject a fake one; default time.Now).
	Now func() time.Time
}

// RestoreStats reports what startup recovered from the snapshot.
type RestoreStats struct {
	// Results and Plans count restored cache entries.
	Results, Plans int
	// Quarantined is the path the corrupt snapshot was moved to (""
	// when the snapshot was absent or healthy).
	Quarantined string
}

// Server is the HTTP scheduling service. Create with New, mount
// Handler on an http.Server, and Drain (or Close) to shut down.
type Server struct {
	opts   Options
	reg    *obs.Registry
	engine *batch.Engine
	index  *lru.Cache[[]byte] // body digest → 200 body; nil when the result cache is off
	quotas *quotaTable
	jobs   *jobTable
	mux    *http.ServeMux
	now    func() time.Time

	draining atomic.Bool
	stopc    chan struct{}
	waiters  sync.WaitGroup // async job waiter goroutines
	loops    sync.WaitGroup // periodic snapshot loop
	drainOne sync.Once
	drainErr error
	snapMu   sync.Mutex // serializes snapshot writes

	restored RestoreStats

	mRequests    *obs.Counter // server.requests
	mRejQuota    *obs.Counter // server.rejected_quota
	mRejQueue    *obs.Counter // server.rejected_queue_full
	mRejInvalid  *obs.Counter // server.rejected_invalid
	mRejOversize *obs.Counter // server.rejected_oversized
	mRejDraining *obs.Counter // server.rejected_draining
	mJobsLive    *obs.Gauge   // server.jobs_live
	mSnapSaves   *obs.Counter // server.snapshot_saves
	mSnapErrors  *obs.Counter // server.snapshot_save_errors
	mSnapQuar    *obs.Counter // server.snapshot_quarantined
	mRestored    *obs.Counter // server.snapshot_restored_results
	mWarmed      *obs.Counter // server.snapshot_restored_plans
}

// New builds and starts a server: engine up, snapshot restored (a
// corrupt one is quarantined, never fatal), periodic snapshot loop
// running. The returned server is ready to serve.
func New(opts Options) (*Server, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:   opts,
		reg:    reg,
		quotas: newQuotaTable(opts.Quota, opts.Now),
		jobs:   newJobTable(opts.MaxJobs),
		now:    opts.Now,
		stopc:  make(chan struct{}),
	}
	s.engine = batch.New(batch.Options{
		Workers:       opts.Workers,
		QueueDepth:    opts.QueueDepth,
		CacheSize:     opts.CacheSize,
		PlanCacheSize: opts.PlanCacheSize,
		Metrics:       reg,
	})
	if n := s.engine.CacheCapacity(); n > 0 {
		s.index = lru.New[[]byte](n, reg, lru.Names{
			Hits:      "server.body_index_hits",
			Misses:    "server.body_index_misses",
			Evictions: "server.body_index_evictions",
		})
	}

	s.mRequests = reg.Counter("server.requests")
	s.mRejQuota = reg.Counter("server.rejected_quota")
	s.mRejQueue = reg.Counter("server.rejected_queue_full")
	s.mRejInvalid = reg.Counter("server.rejected_invalid")
	s.mRejOversize = reg.Counter("server.rejected_oversized")
	s.mRejDraining = reg.Counter("server.rejected_draining")
	s.mJobsLive = reg.Gauge("server.jobs_live")
	s.mSnapSaves = reg.Counter("server.snapshot_saves")
	s.mSnapErrors = reg.Counter("server.snapshot_save_errors")
	s.mSnapQuar = reg.Counter("server.snapshot_quarantined")
	s.mRestored = reg.Counter("server.snapshot_restored_results")
	s.mWarmed = reg.Counter("server.snapshot_restored_plans")

	if opts.SnapshotPath != "" {
		sf, err := loadSnapshot(opts.SnapshotPath)
		switch {
		case errors.Is(err, ErrCorruptSnapshot):
			s.restored.Quarantined = quarantineSnapshot(opts.SnapshotPath, s.now())
			s.mSnapQuar.Inc()
		case err != nil:
			// An I/O error on an existing file is a misconfiguration
			// (permissions, a directory at the path) — be loud.
			s.engine.Close()
			return nil, err
		case sf != nil:
			// Restore before serving: plan recompilation happens here,
			// off the request path, so serving-time plan.compile_misses
			// stay zero for every snapshotted graph.
			s.restored.Results, s.restored.Plans = restoreState(s.engine, sf)
			s.mRestored.Add(int64(s.restored.Results))
			s.mWarmed.Add(int64(s.restored.Plans))
		}
		if opts.SnapshotEvery > 0 {
			s.loops.Add(1)
			go s.snapshotLoop(opts.SnapshotEvery)
		}
	}
	s.routes()
	return s, nil
}

// Restored reports what startup recovered from the snapshot.
func (s *Server) Restored() RestoreStats { return s.restored }

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/schedule", s.handleSync)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/{id}", s.handlePoll)
	s.mux.HandleFunc("/v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeNotFound, Message: "no such route: " + r.URL.Path})
	})
}

// Drain is the graceful-shutdown sequence, in order: (1) stop
// admission — every new submit is answered 503 draining + Retry-After
// and /readyz flips to 503 so load balancers stop routing here;
// (2) stop the periodic snapshot loop; (3) flush in-flight work —
// Engine.Close blocks until every admitted request has completed and
// every async waiter has published its job result; (4) cut the final
// snapshot so the next start is warm. Safe to call more than once;
// concurrent callers block until the first drain finishes. ctx bounds
// only the waiter flush (admitted work is always completed by the
// engine regardless).
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		close(s.stopc)
		s.loops.Wait()
		s.engine.Close()
		done := make(chan struct{})
		go func() { s.waiters.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = ctx.Err()
			return
		}
		if s.opts.SnapshotPath != "" {
			if err := s.saveSnapshot(); err != nil {
				s.drainErr = err
			}
		}
	})
	return s.drainErr
}

// Close is Drain without a bound.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// Snapshot cuts a snapshot now (also called by the periodic loop and
// the drain sequence). No-op without a snapshot path.
func (s *Server) Snapshot() error {
	if s.opts.SnapshotPath == "" {
		return nil
	}
	return s.saveSnapshot()
}

func (s *Server) saveSnapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sf, err := snapshotState(s.engine, s.now())
	if err == nil {
		err = saveSnapshot(s.opts.SnapshotPath, sf)
	}
	if err != nil {
		s.mSnapErrors.Inc()
		return err
	}
	s.mSnapSaves.Inc()
	return nil
}

func (s *Server) snapshotLoop(every time.Duration) {
	defer s.loops.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			_ = s.saveSnapshot() // failures are counted, not fatal
		}
	}
}

// ---- request/response shapes ----

// submitFields are the keys of a POST /v1/schedule or POST /v1/jobs
// body. graph is in the dag JSON format (the same file format dagen
// writes).
var submitFields = []string{"graph", "algorithm", "procs", "seed", "deadline_ms", "no_cache"}

// decodeSubmit decodes a submit body in one pass, the graph in place,
// and reports the first rejection by the precedence the admission
// pipeline has always had: a syntax error anywhere, then a value of
// the wrong JSON type outside the graph (both invalid_request), then a
// missing or invalid graph (invalid_graph), then a negative
// deadline_ms (invalid_request). A body that is JSON null is an empty
// envelope; a repeated key's last value wins, the graph's included;
// bytes after the body's JSON value are ignored.
func decodeSubmit(body []byte) (req batch.Request, reject *ErrorBody) {
	s := jsonscan.New(body)
	var (
		procs, deadlineMS int64
		badField          string // the first envelope field of the wrong JSON type
		haveGraph         bool
		graphErr          error
	)
	switch s.Next() {
	case '{':
		s.Enter('{')
		for i := 0; ; i++ {
			key, ok := s.Member(i)
			if !ok {
				break
			}
			f := jsonscan.Lookup(key, submitFields)
			switch f {
			case 0:
				haveGraph = true
				req.Graph, _, graphErr = dag.DecodeJSON(s)
			case 1:
				ok = s.String(&req.Algorithm)
			case 2:
				ok = s.Int(&procs) && int64(int(procs)) == procs
			case 3:
				ok = s.Int(&req.Seed)
			case 4:
				ok = s.Int(&deadlineMS)
			case 5:
				ok = s.Bool(&req.NoCache)
			default:
				s.Skip()
			}
			if !ok && badField == "" {
				badField = submitFields[f]
			}
		}
	case 'n':
		s.Skip()
	default:
		s.Skip()
		badField = "body"
	}
	switch {
	case s.Err() != nil:
		return req, &ErrorBody{Code: CodeInvalidRequest, Message: "body does not parse: " + s.Err().Error()}
	case badField != "":
		return req, &ErrorBody{Code: CodeInvalidRequest, Message: "body does not parse: " + badField + " has a value of the wrong JSON type or out of range"}
	case !haveGraph:
		return req, &ErrorBody{Code: CodeInvalidGraph, Message: "missing graph"}
	case graphErr != nil:
		return req, &ErrorBody{Code: CodeInvalidGraph, Message: graphErr.Error()}
	case deadlineMS < 0:
		return req, &ErrorBody{Code: CodeInvalidRequest, Message: "deadline_ms must be non-negative"}
	}
	req.Procs = int(procs)
	req.Deadline = time.Duration(deadlineMS) * time.Millisecond
	return req, nil
}

// scheduleResponse is a finished job's outcome: exactly one of Result
// or Err is set. Result is the 200 body, newline included: the
// deterministic scheduling payload, a pure function of the scheduling
// input, byte-identical whether it came from a cold run, the live
// cache, a cache restored from a snapshot, or the body index.
// Request-lifetime metadata (cache hit, latency) travels in the
// X-Fastsched-Cache and X-Fastsched-Elapsed-Ms headers (sync) or the job
// envelope (async) so it never perturbs the payload.
type scheduleResponse struct {
	Result    []byte
	ErrStatus int
	Err       *ErrorBody
	Cache     string
	ElapsedMS float64
}

// jobEnvelope is the GET /v1/jobs/{id} body.
type jobEnvelope struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"` // "pending" or "done"
	Cache     string          `json:"cache,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     *ErrorBody      `json:"error,omitempty"`
}

func cacheLabel(res batch.Result) string {
	switch {
	case res.CacheHit:
		return "hit"
	case res.Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// outcomeOf maps an engine result onto its response. A result the
// engine answered from its result cache marks a body that has
// repeated: an exact-length copy of its 200 body enters the body index
// under digest, so the next repeat is answered without a decode.
func (s *Server) outcomeOf(res batch.Result, digest [32]byte) *scheduleResponse {
	out := &scheduleResponse{Cache: cacheLabel(res), ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond)}
	if res.Err != nil {
		status, body := engineErrorBody(res.Err, s.opts.RetryAfter)
		out.ErrStatus, out.Err = status, &body
		return out
	}
	result, err := encodeResult(res.Algorithm, res.Schedule)
	if err != nil {
		out.ErrStatus, out.Err = http.StatusInternalServerError, &ErrorBody{Code: CodeInternal, Message: err.Error()}
		return out
	}
	out.Result = result
	if s.index != nil && (res.CacheHit || res.Coalesced) {
		s.index.Put(digest, append(make([]byte, 0, len(result)), result...))
	}
	return out
}

// encodeResult builds the 200 body for a schedule straight from it: the
// bytes json.Encoder writes for
//
//	{"algorithm", "makespan", "procs_used",
//	 "placements": [{"node", "proc", "start", "finish"}, ...]}
//
// with one placement per node in node order, and a trailing newline.
func encodeResult(algorithm string, sc *sched.Schedule) ([]byte, error) {
	v := sc.NumNodes()
	b := make([]byte, 0, 96+72*v)
	quoted, err := json.Marshal(algorithm) // encoding/json's own (HTML-safe) escaping
	if err != nil {
		return nil, err
	}
	b = append(b, `{"algorithm":`...)
	b = append(b, quoted...)
	b = append(b, `,"makespan":`...)
	b = appendFloat(b, sc.Length())
	b = append(b, `,"procs_used":`...)
	b = strconv.AppendInt(b, int64(sc.ProcsUsed()), 10)
	b = append(b, `,"placements":[`...)
	for i := 0; i < v; i++ {
		pl := sc.Of(dag.NodeID(i))
		if math.IsInf(pl.Start, 0) || math.IsNaN(pl.Start) || math.IsInf(pl.Finish, 0) || math.IsNaN(pl.Finish) {
			return nil, fmt.Errorf("node %d has a non-finite placement [%v, %v]", i, pl.Start, pl.Finish)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"node":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"proc":`...)
		b = strconv.AppendInt(b, int64(pl.Proc), 10)
		b = append(b, `,"start":`...)
		b = appendFloat(b, pl.Start)
		b = append(b, `,"finish":`...)
		b = appendFloat(b, pl.Finish)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat formats a finite float64 as encoding/json does: the
// shortest representation, in 'e' form below 1e-6 and from 1e21 up
// with a one-digit negative exponent unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Code: CodeMethodNotAllowed, Message: "GET only"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.reg.WriteText(w)
	default:
		writeError(w, http.StatusBadRequest, ErrorBody{Code: CodeInvalidRequest, Message: "format must be json or text"})
	}
}

// submission is one submit that passed every admission gate.
type submission struct {
	req    batch.Request
	tenant string
	// digest is the SHA-256 of the body (zero without a body index).
	digest [32]byte
	// indexed is the 200 body the index holds for this body; when set,
	// req was never decoded and the request is answered with these
	// bytes alone.
	indexed []byte
}

// parseSubmit runs the admission pipeline shared by the sync and async
// submit endpoints: drain gate, body-size gate, body-index lookup, then
// on a miss JSON decode and graph parse/validation, and last the
// tenant quota. It reports the rejection itself (returning ok ==
// false); on success the caller owns one admitted, quota-charged
// request.
func (s *Server) parseSubmit(w http.ResponseWriter, r *http.Request) (sub submission, ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Code: CodeMethodNotAllowed, Message: "POST only"})
		return sub, false
	}
	if s.draining.Load() {
		s.mRejDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Code: CodeDraining, Message: "server is draining; retry against a healthy instance",
			Retryable: true, RetryAfterMS: s.opts.RetryAfter.Milliseconds(),
		})
		return sub, false
	}
	sub.tenant = r.Header.Get("X-Tenant")
	if sub.tenant == "" {
		sub.tenant = "default"
	}

	// Size-gate, decode and structurally validate the payload before
	// quota or engine see it: garbage must be cheap for us and free for
	// the tenant's budget. The body is read whole, so one over the limit
	// is always rejected, even when a complete JSON value ends inside it.
	body, err := readRequestBody(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), r.ContentLength, s.opts.MaxBodyBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.mRejOversize.Inc()
			writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
				Code: CodeBodyTooLarge, Message: "request body exceeds " + strconv.FormatInt(mbe.Limit, 10) + " bytes",
			})
		} else {
			s.mRejInvalid.Inc()
			writeError(w, http.StatusBadRequest, ErrorBody{Code: CodeInvalidRequest, Message: "body does not read: " + err.Error()})
		}
		return sub, false
	}
	// Only a body that decoded and was answered from the result cache
	// is ever indexed, so a hit skips no rejection but the quota's.
	if s.index != nil {
		sub.digest = sha256.Sum256(body)
		sub.indexed, _ = s.index.Get(sub.digest)
	}
	if sub.indexed == nil {
		var reject *ErrorBody
		if sub.req, reject = decodeSubmit(body); reject != nil {
			s.mRejInvalid.Inc()
			writeError(w, http.StatusBadRequest, *reject)
			return sub, false
		}
	}

	if admitted, retryAfter := s.quotas.admit(sub.tenant); !admitted {
		s.mRejQuota.Inc()
		writeError(w, http.StatusTooManyRequests, ErrorBody{
			Code: CodeQuotaExhausted, Message: "tenant " + sub.tenant + " is over its admission rate",
			Retryable: true, RetryAfterMS: retryAfter.Milliseconds(),
		})
		return sub, false
	}

	sub.req.ID = sub.tenant
	return sub, true
}

// maxBodyPrealloc caps what a declared Content-Length reserves before
// any of the body has arrived; a larger body grows past it as it is
// read.
const maxBodyPrealloc = 256 << 10

// readRequestBody reads r to the end into one buffer sized from the request's
// Content-Length when that is known and within limit, which spares
// io.ReadAll's repeated growth on every request.
func readRequestBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 && contentLength <= limit {
		size = min(contentLength+1, maxBodyPrealloc) // +1: read the EOF without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// trySubmit maps the engine's admission onto HTTP, refunding the
// tenant's quota token when the engine (not the tenant) is the reason
// for rejection.
func (s *Server) trySubmit(w http.ResponseWriter, ctx context.Context, req batch.Request, tenant string) (<-chan batch.Result, bool) {
	ch, err := s.engine.TrySubmit(ctx, req)
	if err == nil {
		return ch, true
	}
	if errors.Is(err, batch.ErrQueueFull) || errors.Is(err, batch.ErrClosed) {
		s.quotas.refund(tenant)
		if errors.Is(err, batch.ErrQueueFull) {
			s.mRejQueue.Inc()
		} else {
			s.mRejDraining.Inc()
		}
	} else {
		s.mRejInvalid.Inc()
	}
	status, body := engineErrorBody(err, s.opts.RetryAfter)
	writeError(w, status, body)
	return nil, false
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.parseSubmit(w, r)
	if !ok {
		return
	}
	if sub.indexed != nil {
		writeResult(w, "hit", 0, sub.indexed)
		return
	}
	ch, ok := s.trySubmit(w, r.Context(), sub.req, sub.tenant)
	if !ok {
		return
	}
	res := <-ch // always delivered: the engine completes every admitted job
	out := s.outcomeOf(res, sub.digest)
	if out.Err != nil {
		writeError(w, out.ErrStatus, *out.Err)
		return
	}
	writeResult(w, out.Cache, out.ElapsedMS, out.Result)
}

// writeResult writes a 200 body with its cache status and engine time
// (0 for a body-index hit, which the engine never sees).
func writeResult(w http.ResponseWriter, cache string, elapsedMS float64, body []byte) {
	h := w.Header()
	h.Set("X-Fastsched-Cache", cache)
	h.Set("X-Fastsched-Elapsed-Ms", strconv.FormatFloat(elapsedMS, 'g', -1, 64))
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.parseSubmit(w, r)
	if !ok {
		return
	}
	j, ok := s.jobs.add(sub.tenant)
	if !ok {
		s.quotas.refund(sub.tenant)
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Code: CodeJobTableFull, Message: "too many unfinished jobs; retry later",
			Retryable: true, RetryAfterMS: s.opts.RetryAfter.Milliseconds(),
		})
		return
	}
	if sub.indexed != nil {
		j.complete(&scheduleResponse{Result: sub.indexed, Cache: "hit"})
		writeJSON(w, http.StatusAccepted, jobEnvelope{JobID: j.id, Status: "done"})
		return
	}
	// The job outlives this HTTP request, so it is submitted under the
	// server's lifetime, not the request's: an admitted job always runs
	// to completion (and is flushed by Drain).
	ch, ok := s.trySubmit(w, context.Background(), sub.req, sub.tenant)
	if !ok {
		j.complete(&scheduleResponse{ErrStatus: http.StatusServiceUnavailable,
			Err: &ErrorBody{Code: CodeQueueFull, Message: "rejected at submit", Retryable: true}})
		return
	}
	s.waiters.Add(1)
	s.mJobsLive.Add(1)
	go func() {
		defer s.waiters.Done()
		defer s.mJobsLive.Add(-1)
		j.complete(s.outcomeOf(<-ch, sub.digest))
	}()
	writeJSON(w, http.StatusAccepted, jobEnvelope{JobID: j.id, Status: "pending"})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Code: CodeMethodNotAllowed, Message: "GET only"})
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeNotFound, Message: "unknown job (completed jobs are retained until capacity pressure evicts them)"})
		return
	}
	env := jobEnvelope{JobID: j.id, Status: "pending"}
	if j.finished() {
		env.Status = "done"
		env.Cache = j.result.Cache
		env.ElapsedMS = j.result.ElapsedMS
		env.Result = j.result.Result
		env.Error = j.result.Err
	}
	writeJSON(w, http.StatusOK, env)
}

// handleStream is the SSE-style endpoint: it holds the connection open
// and emits exactly one "result" (or "error") event when the job
// finishes, with keepalive comments while it waits. Clients that
// disconnect early stop the stream; the job itself is unaffected.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{Code: CodeMethodNotAllowed, Message: "GET only"})
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeNotFound, Message: "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, ErrorBody{Code: CodeInternal, Message: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(": connected\n\n"))
	fl.Flush()

	keepalive := time.NewTicker(500 * time.Millisecond)
	defer keepalive.Stop()
	for {
		select {
		case <-j.done:
			kind, data := "result", bytes.TrimSuffix(j.result.Result, []byte("\n"))
			if j.result.Err != nil {
				var err error
				kind = "error"
				if data, err = json.Marshal(errorEnvelope{Error: *j.result.Err}); err != nil {
					return
				}
			}
			_, _ = w.Write([]byte("event: " + kind + "\ndata: "))
			_, _ = w.Write(data)
			_, _ = w.Write([]byte("\n\n"))
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			_, _ = w.Write([]byte(": keepalive\n\n"))
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
