// Package batch is the serving layer of the repository: a concurrent
// multi-DAG scheduling engine that accepts a stream of scheduling
// requests (graph + processor count + algorithm + per-request deadline
// or search budget) and drives them through a bounded worker pool with
// backpressure.
//
// The engine reuses the context plumbing of the FAST family (a request
// deadline becomes a context deadline handed to Scheduler.Find) and the
// obs metrics core: queue depth gauge, per-request latency histogram,
// admission/rejection/completion counters, cache hit and coalescing
// counters. A content-addressed result cache (graph + options hash →
// schedule) with single-flight deduplication coalesces identical
// requests so a burst of duplicate graphs costs one scheduling run.
//
// Concurrency contract: Submit and Do are safe for concurrent use from
// any number of producers. Close drains the queue and blocks until
// every worker has exited; Submit after Close returns ErrClosed. A
// schedule returned by the engine is owned by the caller — cache hits
// and coalesced waiters each receive their own clone, so results can be
// mutated freely and are always bit-identical to a cold scheduling run.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/lru"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// Typed errors. Every request-validation failure is one of these
// (possibly wrapped with detail), so callers and the fuzz harness can
// classify rejections with errors.Is.
var (
	// ErrClosed marks a submission to an engine that has been closed.
	ErrClosed = errors.New("batch: engine closed")
	// ErrQueueFull marks a non-blocking submission rejected because the
	// request queue is at capacity (backpressure).
	ErrQueueFull = errors.New("batch: queue full")
	// ErrNilGraph marks a request without a graph.
	ErrNilGraph = errors.New("batch: nil graph")
	// ErrEmptyGraph marks a request whose graph has no nodes.
	ErrEmptyGraph = errors.New("batch: empty graph")
	// ErrBadDeadline marks a negative per-request deadline.
	ErrBadDeadline = errors.New("batch: negative deadline")
	// ErrBadBudget marks a negative per-request search budget.
	ErrBadBudget = errors.New("batch: negative budget")
	// ErrBadProcs marks a processor count above MaxProcs.
	ErrBadProcs = errors.New("batch: too many processors")
	// ErrBadAlgorithm marks an algorithm name the registry rejects.
	ErrBadAlgorithm = errors.New("batch: unknown algorithm")
	// ErrBadGraph marks a graph that fails structural validation
	// (cycles, NaN/negative weights, corrupt adjacency).
	ErrBadGraph = errors.New("batch: invalid graph")
)

// MaxProcs caps Request.Procs. A scheduler's per-processor state costs
// the same whatever the graph's size — about 32 bytes a processor for
// FAST, 2 MB at this cap — so an uncapped count would let a 3-node
// request allocate gigabytes.
const MaxProcs = 1 << 16

// DefaultAlgorithm is used when Request.Algorithm is empty.
const DefaultAlgorithm = "fast"

// Request is one scheduling job.
type Request struct {
	// ID is an opaque caller tag echoed in the Result (a file name, a
	// tenant ID); the engine never interprets it.
	ID string
	// Graph is the task graph to schedule. The engine treats it as
	// read-only; callers must not mutate it while the request is in
	// flight.
	Graph *dag.Graph
	// Procs is the processor count (<= 0: unbounded, one per node).
	// Above MaxProcs it is rejected with ErrBadProcs.
	Procs int
	// Algorithm names the scheduler (the casch registry names: fast,
	// pfast, etf, dls, ...). Empty selects DefaultAlgorithm.
	Algorithm string
	// Seed drives the FAST family's local search.
	Seed int64
	// Deadline, when positive, bounds the wall-clock scheduling time of
	// this request; on expiry the FAST family returns its best partial
	// schedule together with context.DeadlineExceeded. Zero means no
	// per-request deadline; negative is rejected with ErrBadDeadline.
	Deadline time.Duration
	// Budget, when positive, makes the FAST greedy search anytime for
	// this request (see fast.Options.Budget). Budgeted runs are
	// wall-clock dependent and therefore bypass the result cache.
	// Negative is rejected with ErrBadBudget.
	Budget time.Duration
	// NoCache bypasses the result cache for this request.
	NoCache bool
}

// Result is the outcome of one request.
type Result struct {
	// ID echoes Request.ID.
	ID string
	// Algorithm is the resolved scheduler name.
	Algorithm string
	// Schedule is the produced schedule; nil when Err is a hard
	// failure. On a deadline expiry it may be a valid partial-search
	// best-so-far schedule alongside Err == context.DeadlineExceeded.
	Schedule *sched.Schedule
	// Makespan is Schedule.Length() (0 when Schedule is nil).
	Makespan float64
	// ProcsUsed is Schedule.ProcsUsed() (0 when Schedule is nil).
	ProcsUsed int
	// CacheHit reports that the schedule came from the result cache.
	CacheHit bool
	// Coalesced reports that this request waited on an identical
	// in-flight request instead of scheduling on its own.
	Coalesced bool
	// Elapsed is the request's latency inside the engine: queue wait
	// plus scheduling time.
	Elapsed time.Duration
	// Err is the request's failure, nil on success.
	Err error
}

// Options configures an Engine.
type Options struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the request queue; Submit blocks (and TrySubmit
	// rejects) when it is full. Default: 2 × Workers.
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 1024);
	// negative disables caching entirely.
	CacheSize int
	// PlanCacheSize bounds the graph-compilation cache in compiled
	// graphs (default plan.DefaultCacheSize); negative disables it, in
	// which case every run re-derives the graph artifacts ad hoc, with
	// bit-identical results (pinned by the differential tests).
	PlanCacheSize int
	// Metrics, when non-nil, receives the engine's telemetry under the
	// batch.* namespace. Nil disables it at the usual obs zero cost.
	Metrics obs.Sink
}

// Engine is the concurrent batch scheduler. Create with New, feed with
// Submit/Do, and Close when done.
type Engine struct {
	opts  Options
	queue chan *job
	wg    sync.WaitGroup              // workers
	subWG sync.WaitGroup              // blocking submitters not yet enqueued
	cache *lru.Cache[*sched.Schedule] // result cache; nil when caching is off
	plans *plan.Cache                 // compiled-graph cache; nil when compilation is off

	mu     sync.Mutex
	closed bool

	inFlight atomic.Int64 // jobs admitted and not yet completed

	// Metrics, resolved once; all nil (and free) without a sink.
	mQueueDepth *obs.Gauge     // batch.queue_depth
	mAdmitted   *obs.Counter   // batch.admitted
	mRejected   *obs.Counter   // batch.rejected
	mCompleted  *obs.Counter   // batch.completed
	mFailed     *obs.Counter   // batch.failed
	mLatency    *obs.Histogram // batch.latency_ms
}

// job is one admitted request plus its completion channel.
type job struct {
	ctx    context.Context
	req    Request
	queued time.Time
	done   chan Result // buffered(1); exactly one send
	gk     plan.Key    // graph content hash, computed at admission
	hasGK  bool        // gk is set (engine has a plan cache)
}

// New returns a started engine. The returned engine owns Workers
// goroutines until Close.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 1024
	}
	e := &Engine{
		opts:  opts,
		queue: make(chan *job, opts.QueueDepth),
	}
	if opts.CacheSize > 0 {
		e.cache = lru.New[*sched.Schedule](opts.CacheSize, opts.Metrics, lru.Names{
			Hits:      "batch.cache_hits",
			Misses:    "batch.cache_misses",
			Evictions: "batch.cache_evictions",
			Shared:    "batch.coalesced",
		})
	}
	if opts.PlanCacheSize >= 0 {
		e.plans = plan.NewCache(opts.PlanCacheSize, opts.Metrics)
	}
	if s := opts.Metrics; s != nil {
		e.mQueueDepth = s.Gauge("batch.queue_depth")
		e.mAdmitted = s.Counter("batch.admitted")
		e.mRejected = s.Counter("batch.rejected")
		e.mCompleted = s.Counter("batch.completed")
		e.mFailed = s.Counter("batch.failed")
		e.mLatency = s.Histogram("batch.latency_ms", obs.ExpBuckets(0.01, 4, 12))
	}
	for w := 0; w < opts.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// validate rejects malformed requests with typed errors before they
// consume a queue slot.
//
// The O(v+e) structural graph check (cycle detection, weight checks) is
// memoized by content: every graph the engine has ever compiled passed
// Graph.Validate before reaching the compiler, so a compilation-cache
// hit on the graph's content key proves the identical bytes are valid
// and the re-check is pure overhead. The SHA-256 computed for that
// lookup is returned alongside (hasGK) and carried on the job into
// execute, preserving the hash-once-per-request contract. A cache miss
// — first sight of a graph, an evicted entry, or a compilation-disabled
// engine — always runs the full structural check.
func (e *Engine) validate(req Request) (gk plan.Key, hasGK bool, err error) {
	if req.Graph == nil {
		return gk, false, ErrNilGraph
	}
	if req.Graph.NumNodes() == 0 {
		return gk, false, ErrEmptyGraph
	}
	if req.Deadline < 0 {
		return gk, false, fmt.Errorf("%w: %v", ErrBadDeadline, req.Deadline)
	}
	if req.Budget < 0 {
		return gk, false, fmt.Errorf("%w: %v", ErrBadBudget, req.Budget)
	}
	if req.Procs > MaxProcs {
		return gk, false, fmt.Errorf("%w: %d > %d", ErrBadProcs, req.Procs, MaxProcs)
	}
	known := false
	if e.plans != nil {
		gk, hasGK = plan.GraphKey(req.Graph), true
		known = e.plans.Peek(gk)
	}
	if !known {
		if err := req.Graph.Validate(); err != nil {
			return gk, hasGK, fmt.Errorf("%w: %v", ErrBadGraph, err)
		}
	}
	name := req.Algorithm
	if name == "" {
		name = DefaultAlgorithm
	}
	if _, err := casch.NewScheduler(name, req.Seed); err != nil {
		return gk, hasGK, fmt.Errorf("%w: %v", ErrBadAlgorithm, err)
	}
	return gk, hasGK, nil
}

// Submit validates and enqueues a request, blocking while the queue is
// full (backpressure). It returns a channel that delivers exactly one
// Result. ctx cancels both the queue wait and the scheduling run;
// validation failures and ErrClosed are returned synchronously.
func (e *Engine) Submit(ctx context.Context, req Request) (<-chan Result, error) {
	return e.submit(ctx, req, true)
}

// TrySubmit is Submit without blocking: a full queue is rejected
// immediately with ErrQueueFull, making backpressure visible to
// load-shedding callers.
func (e *Engine) TrySubmit(ctx context.Context, req Request) (<-chan Result, error) {
	return e.submit(ctx, req, false)
}

func (e *Engine) submit(ctx context.Context, req Request, wait bool) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gk, hasGK, err := e.validate(req)
	if err != nil {
		e.reject()
		return nil, err
	}
	if req.Algorithm == "" {
		req.Algorithm = DefaultAlgorithm
	}
	j := &job{ctx: ctx, req: req, queued: time.Now(), done: make(chan Result, 1), gk: gk, hasGK: hasGK}

	// The closed check and the enqueue race against Close closing the
	// channel; holding mu across the send is the simplest correct
	// ordering and the send itself never blocks for long when wait is
	// false. For the blocking path, re-check closed around a select so
	// Close cannot close the channel mid-send.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.reject()
		return nil, ErrClosed
	}
	if !wait {
		select {
		case e.queue <- j:
			e.admit()
			e.mu.Unlock()
			return j.done, nil
		default:
			e.mu.Unlock()
			e.reject()
			return nil, ErrQueueFull
		}
	}
	// Blocking admission: try a fast non-blocking send under the lock,
	// then fall back to a lock-free blocking wait. Close waits for
	// pending blocking sends via subWG before closing the channel, so a
	// submitter can never send on a closed queue.
	select {
	case e.queue <- j:
		e.admit()
		e.mu.Unlock()
		return j.done, nil
	default:
	}
	e.subWG.Add(1)
	e.mu.Unlock()
	defer e.subWG.Done()
	select {
	case e.queue <- j:
		e.admit()
		return j.done, nil
	case <-ctx.Done():
		e.reject()
		return nil, ctx.Err()
	}
}

// admit and reject are the only two exits of the submission path, and
// they partition it: every call to submit ends in exactly one of them.
// The queue-depth gauge moves only on the admit side — incremented
// here, decremented once by the worker that dequeues the job — so the
// accounting invariants are
//
//	admitted == completed + failed   (after the engine drains)
//	queue_depth == admitted - dequeued, and 0 after Close
//	rejected requests never touch queue_depth or in-flight
//
// pinned by TestQueueDepthGaugeAccounting. A rejection that decremented
// the gauge (or an admission path that skipped admit) would leave the
// gauge permanently skewed, which is exactly what load-shedding callers
// watch to decide whether to shed.
func (e *Engine) admit() {
	e.mAdmitted.Inc()
	e.mQueueDepth.Add(1)
	e.inFlight.Add(1)
}

func (e *Engine) reject() {
	e.mRejected.Inc()
}

// Do is the synchronous convenience wrapper: submit and wait. A context
// cancellation while queued or scheduling surfaces as Result.Err.
func (e *Engine) Do(ctx context.Context, req Request) Result {
	ch, err := e.Submit(ctx, req)
	if err != nil {
		return Result{ID: req.ID, Algorithm: req.Algorithm, Err: err}
	}
	return <-ch
}

// CacheCapacity returns the result cache's bound in entries, with the
// default applied; 0 when caching is disabled.
func (e *Engine) CacheCapacity() int { return max(e.opts.CacheSize, 0) }

// InFlight returns the number of admitted-but-uncompleted requests.
func (e *Engine) InFlight() int { return int(e.inFlight.Load()) }

// Close stops admission, drains every already-admitted request, and
// blocks until all workers have exited. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Blocking submitters that passed the closed check keep their right
	// to enqueue (workers are still draining); wait them out before
	// closing the channel.
	e.subWG.Wait()
	close(e.queue)
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.mQueueDepth.Add(-1)
		res := e.execute(j)
		res.Elapsed = time.Since(j.queued)
		e.mLatency.Observe(float64(res.Elapsed) / float64(time.Millisecond))
		if res.Err != nil {
			e.mFailed.Inc()
		} else {
			e.mCompleted.Inc()
		}
		e.inFlight.Add(-1)
		j.done <- res
	}
}

// execute runs one admitted job: a cold scheduling run, or, when the
// request is cacheable, the result cache's lookup, single-flight
// coalesce and fill around it. Every schedule handed out is a clone, so
// the caller owns it and the cached copy stays untouched.
func (e *Engine) execute(j *job) Result {
	req := j.req
	res := Result{ID: req.ID, Algorithm: req.Algorithm}
	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued: don't pay for a scheduling run the
		// caller no longer wants.
		res.Err = err
		return res
	}

	// Hash the graph once: admission already computed the digest when
	// the engine has a plan cache (it addresses the compilation cache
	// and memoizes validation); it also seeds the result-cache key.
	gk := j.gk
	cacheable := !req.NoCache && req.Budget == 0 && e.cache != nil
	if cacheable && !j.hasGK {
		gk = plan.GraphKey(req.Graph)
	}
	if !cacheable {
		res.Schedule, res.Err = e.run(j.ctx, req, gk)
	} else {
		// The first request for a key schedules and fills the cache,
		// unless its run fails or expires: partial deadline results are
		// wall-clock dependent. Concurrent duplicates wait for that run,
		// or give up when their own context ends.
		s, src, err := e.cache.Do(j.ctx, requestKeyFrom(req, gk), func() (*sched.Schedule, error) {
			return e.run(j.ctx, req, gk)
		})
		if s != nil {
			res.Schedule = s.Clone()
		}
		res.Err, res.CacheHit, res.Coalesced = err, src == lru.Hit, src == lru.Shared
	}
	if res.Schedule != nil {
		res.Makespan = res.Schedule.Length()
		res.ProcsUsed = res.Schedule.ProcsUsed()
	}
	return res
}

// run performs one cold scheduling run under the request's context and
// deadline, always from a plan: the plan cache's, compiled once per
// unique graph, or a per-run compile when the cache is disabled. The
// produced schedules are bit-identical either way (pinned by the
// differential tests).
func (e *Engine) run(ctx context.Context, req Request, gk plan.Key) (*sched.Schedule, error) {
	s, err := casch.NewScheduler(req.Algorithm, req.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAlgorithm, err)
	}
	if req.Budget > 0 {
		b, ok := s.(interface {
			WithBudget(time.Duration) *fast.Scheduler
		})
		if !ok {
			return nil, fmt.Errorf("%w: budget is only supported by the FAST family, not %q", ErrBadBudget, req.Algorithm)
		}
		s = b.WithBudget(req.Budget)
	}
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	// validate checked the graph (or found its plan cached), so the
	// uncached compile trusts it too.
	var cg *plan.CompiledGraph
	if e.plans != nil {
		cg, err = e.plans.GetKeyed(req.Graph, gk)
	} else {
		cg, err = plan.CompileKeyed(req.Graph, gk)
	}
	if err != nil {
		// Unreachable after validate (a compile only fails on empty or
		// cyclic graphs), but don't run without a plan.
		return nil, fmt.Errorf("%w: %v", ErrBadGraph, err)
	}
	out, err := casch.ScheduleCompiled(ctx, s, cg, req.Procs)
	if out != nil && err == nil {
		if verr := sched.ValidateFlat(cg.CSR, out); verr != nil {
			return nil, fmt.Errorf("batch: %s produced an invalid schedule: %w", req.Algorithm, verr)
		}
	}
	return out, err
}
