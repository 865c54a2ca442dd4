package fast

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/obs"
	"fastsched/internal/sched"
)

// telemetry is the resolved metric set of one FAST run. The zero value
// is the disabled state: every field is nil, so each record call is a
// nil-check no-op and the hot loops stay allocation-free (asserted by
// the AllocsPerRun tests). Counters and histograms are shared across
// PFAST/multi-start workers and updated atomically, so the recorded
// totals aggregate all workers; the worker index only tags trajectory
// events.
type telemetry struct {
	steps    *obs.Counter   // candidate transfers evaluated
	accepted *obs.Counter   // strict improvements kept
	reverted *obs.Counter   // candidates undone
	skipped  *obs.Counter   // same-processor draws (consume a step, no eval)
	cutoffs  *obs.Counter   // suffix replays aborted by an incumbent bound
	replay   *obs.Histogram // list positions replayed per evaluation
	best     *obs.Gauge     // running best makespan (last accepting worker)
	workers  *obs.Counter   // search workers launched (PFAST/multi-start)
	workerLn *obs.Histogram // final makespan per worker
	poolGets *obs.Counter   // scratch states served from the pool
	poolNews *obs.Counter   // scratch states freshly allocated
	traj     *obs.Trajectory
	worker   int // trajectory tag; 0 for the serial search
}

// newTelemetry resolves the FAST metric names against sink once, so the
// search loops never pay a map lookup. Both arguments may be nil.
func newTelemetry(sink obs.Sink, traj *obs.Trajectory) telemetry {
	t := telemetry{traj: traj}
	if sink == nil {
		return t
	}
	t.steps = sink.Counter("fast.search.steps_tried")
	t.accepted = sink.Counter("fast.search.accepted")
	t.reverted = sink.Counter("fast.search.reverted")
	t.skipped = sink.Counter("fast.search.same_proc_skips")
	t.cutoffs = sink.Counter("fast.search.incumbent_cutoffs")
	t.replay = sink.Histogram("fast.search.replay_len", obs.ExpBuckets(1, 2, 17))
	t.best = sink.Gauge("fast.search.best_makespan")
	t.workers = sink.Counter("fast.search.workers")
	t.workerLn = sink.Histogram("fast.search.worker_final_len", obs.ExpBuckets(1, 2, 24))
	t.poolGets = sink.Counter("fast.pool.gets")
	t.poolNews = sink.Counter("fast.pool.news")
	return t
}

// record captures one transfer attempt into the trajectory (if any).
func (t *telemetry) record(step int, n dag.NodeID, from, to int, cand, best float64, accepted bool, replayLen int) {
	if t.traj == nil {
		return
	}
	t.traj.Record(obs.StepEvent{
		Step: step, Worker: t.worker,
		Node: int(n), From: from, To: to,
		Candidate: cand, Best: best, Accepted: accepted, ReplayLen: replayLen,
	})
}

// debugPanicWorker, when >= 0, makes the parallel-search worker with
// that index panic — the test hook proving a crashing PFAST goroutine
// surfaces as an error instead of killing the process. It must never be
// set outside tests.
var debugPanicWorker = -1

// debugFullReplay forces every transfer to replay the whole list,
// disabling the checkpoint shortcut while keeping the CSR kernel.
// Differential tests flip it to prove the incremental path is
// bit-equivalent to full replay; it must never be set outside tests.
var debugFullReplay bool

// checkpointInterval picks K, the spacing of the per-processor
// ready-time checkpoints. Saving a checkpoint costs O(p) copies per K
// replayed nodes, so K grows with the processor count to keep that
// overhead well below the O(K·deg) edge work of the nodes it spans;
// the floor keeps snapshots dense on small machines where they are
// nearly free.
func checkpointInterval(procs int) int {
	if k := procs / 4; k > 16 {
		return k
	}
	return 16
}

// state holds the mutable scheduling state shared by phase 1 and the
// local search: a processor assignment per node plus scratch tables for
// the schedule evaluation. Evaluation is incremental: transferring the
// node at list position q only invalidates the suffix from q onward, so
// tryCandidate restores the per-processor ready times from the nearest
// checkpoint at or before q in O(p) and replays only the tail.
type state struct {
	list  []dag.NodeID // topological priority order (phase-1 list)
	procs int

	csr *dag.CSR // flat adjacency layout; immutable, shared by every start
	pos []int    // node -> list position

	assign []int // processor of each node
	start  []float64
	finish []float64
	ready  []float64 // scratch: per-processor ready time
	length float64

	// Checkpoints: before processing list position i*ckK the replay loop
	// snapshots the p ready times into ckReady[i*procs:] and the running
	// max finish into ckLen[i]. A checkpoint at position c stays valid as
	// long as no assignment at a position < c changed.
	ckK     int
	ckReady []float64
	ckLen   []float64

	// Undo journal for journalTransfer/revertTransfer: the suffix of the
	// start/finish tables (indexed by list position) and the checkpoint
	// rows a candidate replay is about to overwrite. Reverting restores
	// them with plain copies — no edge walks — so a rejected move costs
	// O(v_suffix + p) instead of forcing the next evaluation to replay
	// from the rejected position too.
	undoNode   dag.NodeID
	undoProc   int
	undoBase   int
	undoStart  []float64
	undoFinish []float64
	undoCk     []float64
	undoCkLen  []float64
	undoLength float64

	// tele carries the resolved telemetry of this run; the zero value
	// (nil metric pointers) disables it. lastReplay is the number of
	// list positions the most recent transfer journaled (the planned
	// replay suffix), for the trajectory recording; an incumbent cutoff
	// replays fewer positions but records the same planned length so
	// telemetry semantics do not depend on the cutoff.
	tele       telemetry
	lastReplay int

	// incumbent, when non-nil, shares the best makespan across
	// cooperating workers and tightens every replay's cutoff (see
	// tryCandidate). The cross-worker bound makes a worker's
	// trajectory timing-dependent, so it is only wired up in Budget
	// (anytime) mode, where fixed-seed determinism is already waived.
	incumbent *sharedBound

	fullReplay bool // mirror of debugFullReplay, captured at init
}

// init sizes every table of st for (csr, list, procs, ckK), reusing the
// slices' existing capacity. Checkpoint 0 holds the processors'
// starting ready times: phase 1 starts from it and every full replay
// restores from it before rewriting it. init zeroes it (the empty
// machine); the frozen machine overwrites it with its floors. Every
// other table is fully overwritten before it is read, so recycled
// scratch never leaks values into a run (the differential tests pin
// this by comparing pooled runs against fresh ones bit for bit).
func (st *state) init(list []dag.NodeID, csr *dag.CSR, procs, ckK int) {
	v := csr.NumNodes()
	if ckK < 1 {
		ckK = 1
	}
	numCk := 0
	if len(list) > 0 {
		numCk = (len(list)-1)/ckK + 1
	}
	st.list = list
	st.procs = procs
	st.csr = csr
	st.pos = resizeInt(st.pos, v)
	for i, n := range list {
		st.pos[n] = i
	}
	st.assign = resizeInt(st.assign, v)
	st.start = resizeF64(st.start, v)
	st.finish = resizeF64(st.finish, v)
	st.ready = resizeF64(st.ready, procs)
	st.length = 0
	st.ckK = ckK
	st.ckReady = resizeF64(st.ckReady, numCk*procs)
	st.ckLen = resizeF64(st.ckLen, numCk)
	for i := 0; i < procs && i < len(st.ckReady); i++ {
		st.ckReady[i] = 0
	}
	if numCk > 0 {
		st.ckLen[0] = 0
	}
	st.undoStart = resizeF64(st.undoStart, v)
	st.undoFinish = resizeF64(st.undoFinish, v)
	st.undoCk = resizeF64(st.undoCk, numCk*procs)
	st.undoCkLen = resizeF64(st.undoCkLen, numCk)
	st.tele = telemetry{}
	st.lastReplay = 0
	st.incumbent = nil
	st.fullReplay = debugFullReplay
}

// resizeF64 returns s with length n, reusing capacity when possible.
// Contents are unspecified; callers overwrite before reading.
func resizeF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func resizeInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// statePool recycles search states across runs. States are sized
// per-run by init (slices keep their capacity), so a steady stream of
// same-shaped requests reaches a fixed point where acquireState
// allocates nothing — the AllocsPerRun tests pin that.
var statePool = sync.Pool{New: func() any { return &state{} }}

// acquireState draws a state from the pool and initializes it for this
// run. Release with st.release() once the schedule has been extracted;
// a released state must not be touched again.
func acquireState(list []dag.NodeID, csr *dag.CSR, procs int, tele telemetry) *state {
	st := statePool.Get().(*state)
	if st.assign == nil {
		tele.poolNews.Inc()
	} else {
		tele.poolGets.Inc()
	}
	st.init(list, csr, procs, checkpointInterval(procs))
	st.tele = tele
	return st
}

// release returns st to the pool, dropping the references that would
// otherwise keep the graph alive. The tables keep their capacity.
func (st *state) release() {
	st.list = nil
	st.csr = nil
	st.tele = telemetry{}
	st.incumbent = nil
	statePool.Put(st)
}

// sharedBound is an atomic float64 minimum shared by cooperating
// budget-mode workers: accepted improvements publish their makespan,
// and every worker folds the published bound into its replay cutoff.
type sharedBound struct{ bits atomic.Uint64 }

func newSharedBound() *sharedBound {
	b := &sharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *sharedBound) load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// update lowers the bound to x if x is smaller (CAS loop).
func (b *sharedBound) update(x float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= x {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// initialReadyTime runs the paper's InitialSchedule(): walk the list,
// placing each node on the candidate processor that starts it
// earliest. The candidates are the node's parents' processors, in
// predecessor order, then the lowest-numbered empty processor while one
// remains (the paper's fresh processor), or every processor in index
// order once none does; the first strictly earliest start wins.
// Processors 0..used-1 hold work on entry, and the ready times start
// from checkpoint 0. A candidate is priced at its ready time, with no
// gap search, in O(1) from the node's arrivals, so the walk costs
// O(deg) per node while an empty processor remains and O(deg + P)
// after.
//
// slots, when non-nil, holds one timeline per processor and switches
// the pricing to the insertion ablation: a candidate offers the
// earliest idle slot that fits the node, and the winner's timeline
// takes the node.
func (st *state) initialReadyTime(used int, slots []listsched.Timeline) {
	copy(st.ready, st.ckReady[:st.procs])
	for _, n := range st.list {
		a := listsched.ArrivalsOf(st.csr, n, st.assign, st.finish)
		w := st.csr.NodeW[n]
		best, bestStart := -1, 0.0
		consider := func(q int) {
			s := a.StartOn(q, st.ready[q])
			if slots != nil {
				s = slots[q].EarliestStart(st.datOn(n, q), w)
			}
			if best < 0 || s < bestStart {
				best, bestStart = q, s
			}
		}
		for i := st.csr.PredOff[n]; i < st.csr.PredOff[n+1]; i++ {
			if q := st.assign[st.csr.PredFrom[i]]; q >= 0 {
				consider(q)
			}
		}
		if used < st.procs {
			consider(used)
		} else {
			for q := range st.procs {
				consider(q)
			}
		}
		st.place(n, best, bestStart)
		if slots != nil {
			slots[best].Insert(n, bestStart, w)
		}
		if best == used {
			used++
		}
	}
	st.length = st.maxFinish()
}

func (st *state) place(n dag.NodeID, p int, s float64) {
	st.assign[n] = p
	st.start[n] = s
	st.finish[n] = s + st.csr.NodeW[n]
	st.ready[p] = st.finish[n]
}

// datOn computes the data arrival time of n on processor p from the
// finish tables (parents are guaranteed earlier in the list), walking
// the flat CSR predecessor arrays.
func (st *state) datOn(n dag.NodeID, p int) float64 {
	var dat float64
	for i := st.csr.PredOff[n]; i < st.csr.PredOff[n+1]; i++ {
		from := st.csr.PredFrom[i]
		arr := st.finish[from]
		if st.assign[from] != p {
			arr += st.csr.PredW[i]
		}
		if arr > dat {
			dat = arr
		}
	}
	return dat
}

func (st *state) maxFinish() float64 {
	var m float64
	for _, n := range st.list {
		if st.finish[n] > m {
			m = st.finish[n]
		}
	}
	return m
}

// evaluate recomputes every start/finish from the current assignment by
// replaying the whole list in order with ready-time semantics, returning
// the schedule length. This is the O(e) "re-visit all the edges once"
// step of the paper's search loop; the search replays only the suffix
// a transfer invalidates (tryCandidate).
func (st *state) evaluate() float64 {
	if len(st.list) == 0 {
		st.length = 0
		return 0
	}
	length, _ := st.replayFromBound(0, math.Inf(1))
	return length
}

// replayFromBound restores the per-processor ready times and the
// running max finish in O(p) from the checkpoint at list position base
// (which must be a multiple of ckK, with every earlier checkpoint
// valid), then recomputes start/finish for the tail only, refreshing
// every checkpoint it passes. The replay performs the identical
// operation sequence on the identical prefix values as a full replay,
// so the results (including the max reductions) are bit-equivalent.
//
// The replay stops as soon as the running schedule length reaches
// bound, reporting complete == false; +Inf replays the whole tail.
// Because the length is non-decreasing over a replay, an aborted
// candidate's final length would also have reached the bound, so
// aborting cannot change an accept/reject decision made against a
// threshold <= bound. An aborted replay leaves the tables mid-rewrite:
// the caller MUST revertTransfer (the undo journal covers everything
// the partial replay touched). st.length is only updated on completion.
func (st *state) replayFromBound(base int, bound float64) (float64, bool) {
	v := len(st.list)
	ck := base / st.ckK
	copy(st.ready, st.ckReady[ck*st.procs:(ck+1)*st.procs])
	length := st.ckLen[ck]
	for i := base; i < v; i++ {
		if i%st.ckK == 0 {
			copy(st.ckReady[(i/st.ckK)*st.procs:], st.ready)
			st.ckLen[i/st.ckK] = length
		}
		n := st.list[i]
		p := st.assign[n]
		s := st.datOn(n, p)
		if st.ready[p] > s {
			s = st.ready[p]
		}
		st.start[n] = s
		f := s + st.csr.NodeW[n]
		st.finish[n] = f
		st.ready[p] = f
		if f > length {
			length = f
			if length >= bound {
				return length, false
			}
		}
	}
	st.length = length
	return length, true
}

// journalTransfer records the undo journal for moving n to processor
// p — the table suffix and checkpoint rows the replay will overwrite —
// applies the assignment, and returns the replay base position. The
// planned replay length is observed here, before any replay runs, so
// the replay_len telemetry is identical with and without a bound.
func (st *state) journalTransfer(n dag.NodeID, p int) int {
	q := st.pos[n]
	if st.fullReplay {
		q = 0
	}
	base := q / st.ckK * st.ckK
	v := len(st.list)
	st.undoNode, st.undoProc, st.undoBase = n, st.assign[n], base
	st.undoLength = st.length
	for i := base; i < v; i++ {
		m := st.list[i]
		st.undoStart[i] = st.start[m]
		st.undoFinish[i] = st.finish[m]
	}
	ckFirst := base / st.ckK
	copy(st.undoCk[ckFirst*st.procs:], st.ckReady[ckFirst*st.procs:])
	copy(st.undoCkLen[ckFirst:], st.ckLen[ckFirst:])
	st.assign[n] = p
	st.lastReplay = v - base
	st.tele.replay.Observe(float64(v - base))
	return base
}

// revertTransfer undoes the most recent transfer with plain copies, even
// after a replay the cutoff stopped part way: the reverted tables are
// bit-identical to the pre-transfer state, so a rejected candidate
// leaves no trace — numerically or in the checkpoint rows — and the
// next transfer replays only its own suffix.
func (st *state) revertTransfer() {
	st.assign[st.undoNode] = st.undoProc
	base := st.undoBase
	v := len(st.list)
	for i := base; i < v; i++ {
		m := st.list[i]
		st.start[m] = st.undoStart[i]
		st.finish[m] = st.undoFinish[i]
	}
	ckFirst := base / st.ckK
	copy(st.ckReady[ckFirst*st.procs:], st.undoCk[ckFirst*st.procs:])
	copy(st.ckLen[ckFirst:], st.undoCkLen[ckFirst:])
	st.length = st.undoLength
}

// search runs the paper's local search, FAST's only search loop:
// random transfer attempts of blocking nodes to random processors,
// keeping only strict improvements of the schedule length. It makes
// maxSteps attempts or, with a positive budget, attempts until the
// wall-clock budget expires (the anytime mode), reading the clock every
// 32 steps to keep the loop cheap. The context is checked each step; on
// cancellation the tables hold the best schedule found so far (every
// rejected move was reverted) and ctx.Err() is returned.
func (st *state) search(ctx context.Context, blocking []dag.NodeID, maxSteps int, budget time.Duration, rng *rand.Rand) error {
	if len(blocking) == 0 || st.procs < 2 {
		// With one processor or no movable node the neighborhood is empty.
		st.evaluate()
		return stopErr(ctx)
	}
	deadline := time.Now().Add(budget)
	best := st.evaluate()
	st.tele.best.Set(best)
	for step := 0; budget > 0 || step < maxSteps; step++ {
		if err := stopErr(ctx); err != nil {
			return err
		}
		if budget > 0 && step%32 == 0 && !time.Now().Before(deadline) {
			break
		}
		n := blocking[rng.Intn(len(blocking))]
		p := rng.Intn(st.procs)
		if p == st.assign[n] {
			st.tele.skipped.Inc()
			continue
		}
		from := st.assign[n]
		st.tele.steps.Inc()
		cand, complete := st.tryCandidate(n, p, best)
		if complete && cand < best-1e-12 {
			best = cand
			if st.incumbent != nil {
				st.incumbent.update(best)
			}
			st.tele.accepted.Inc()
			st.tele.best.Set(best)
			st.tele.record(step, n, from, p, cand, best, true, st.lastReplay)
		} else {
			st.revertTransfer()
			st.tele.reverted.Inc()
			st.tele.record(step, n, from, p, cand, best, false, st.lastReplay)
		}
	}
	return nil
}

// tryCandidate moves n to p and evaluates the move against the
// acceptance threshold best. Its replay stops once the running length
// reaches best - 1e-12: the length never falls over a replay, so the
// final candidate could not pass the strict-improvement test either,
// and the decision — and therefore the whole search for a fixed seed —
// is the one a full replay makes. A stopped replay reports the length
// it reached and complete == false; the caller must revert the move. A
// worker in budget mode additionally folds the shared cross-worker
// incumbent into the bound.
func (st *state) tryCandidate(n dag.NodeID, p int, best float64) (float64, bool) {
	bound := best - 1e-12
	if st.incumbent != nil {
		if b := st.incumbent.load() - 1e-12; b < bound {
			bound = b
		}
	}
	cand, complete := st.replayFromBound(st.journalTransfer(n, p), bound)
	if !complete {
		st.tele.cutoffs.Inc()
	}
	return cand, complete
}

// searchParallel is PFAST and multi-start: `workers` independent
// searchers with seeds seed, seed+1, ...; the shortest final schedule
// wins, ties going to the lowest start index so the result is
// deterministic. Each start runs search, for maxSteps steps or, when
// budget is positive, until the budget is spent. Start w searches from
// st's phase-1 schedule, or, when lists[w] is non-nil (a multi-start
// start on another list order), from its own phase 1 over lists[w].
//
// The starts form a pool drained by up to GOMAXPROCS goroutines through
// an atomic cursor (work stealing), instead of one goroutine per start:
// a start's outcome depends only on its index, never on which goroutine
// ran it or in what order, so the reduction is unaffected by the
// stealing. Each start searches on a state drawn from the package pool.
// In budget mode the searchers additionally share an atomic incumbent
// bound that cuts non-improving suffix replays early across workers
// (fixed-step modes keep the cutoff at each start's own best; see
// tryCandidate).
//
// The winner's assignment is replayed into st over the winner's list.
// Every start is wrapped in recover, so a panicking search surfaces as
// an error from Schedule instead of killing the process. A cancelled
// context is not fatal: each start stops at its best-so-far schedule,
// the best of those is committed, and ctx.Err() is returned alongside
// it.
func (st *state) searchParallel(ctx context.Context, lists [][]dag.NodeID, blocking []dag.NodeID, maxSteps int, seed int64, workers int, budget time.Duration) error {
	type result struct {
		assign []int
		length float64
	}
	results := make([]result, workers)
	errs := make([]error, workers)
	own := func(w int) bool { return w < len(lists) && lists[w] != nil }
	var incumbent *sharedBound
	if budget > 0 {
		incumbent = newSharedBound()
	}
	runStart := func(w int) {
		list := st.list
		if own(w) {
			list = lists[w]
		}
		local := acquireState(list, st.csr, st.procs, st.tele)
		defer local.release()
		defer func() {
			if r := recover(); r != nil {
				errs[w] = fmt.Errorf("fast: search worker %d panicked: %v", w, r)
				results[w].assign = nil
			}
		}()
		if w == debugPanicWorker {
			panic("injected test panic")
		}
		// The search replays the assignment before it reads a table.
		if own(w) {
			local.initialReadyTime(0, nil)
		} else {
			copy(local.assign, st.assign)
		}
		local.tele.worker = w
		local.incumbent = incumbent
		rng := rand.New(rand.NewSource(seed + int64(w)))
		errs[w] = local.search(ctx, blocking, maxSteps, budget, rng)
		results[w] = result{assign: append([]int(nil), local.assign...), length: local.length}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := int(cursor.Add(1)) - 1; w < workers; w = int(cursor.Add(1)) - 1 {
				runStart(w)
			}
		}()
	}
	wg.Wait()
	var ctxErr error
	for w := 0; w < workers; w++ {
		if err := errs[w]; err != nil {
			if results[w].assign == nil || !isCancellation(err) {
				return err // a panic or unexpected failure is fatal
			}
			ctxErr = err
		}
	}
	best := 0
	for w := 1; w < workers; w++ {
		if results[w].length < results[best].length-1e-12 {
			best = w
		}
	}
	st.tele.workers.Add(int64(workers))
	for w := 0; w < workers; w++ {
		if results[w].assign != nil {
			st.tele.workerLn.Observe(results[w].length)
		}
	}
	if own(best) {
		tele := st.tele
		st.init(lists[best], st.csr, st.procs, st.ckK)
		st.tele = tele
	}
	copy(st.assign, results[best].assign)
	st.evaluate()
	st.tele.best.Set(st.length)
	return ctxErr
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry — the expected, partial-result-preserving way for a
// search to stop early.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stopErr is ctx.Err(), except that a deadline already past counts as
// expired before the runtime timer that cancels ctx has fired: on a
// busy processor that timer can lag a short deadline by milliseconds,
// and the CPU-bound search would run on past it.
func stopErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// buildSchedule converts the state tables into a sched.Schedule with
// compact processor numbering (processors renumbered 0..k-1 in order of
// first use along the list, so reports show contiguous PE indices).
func (st *state) buildSchedule() *sched.Schedule {
	s := sched.New(len(st.assign))
	renumber := make([]int, st.procs)
	for i := range renumber {
		renumber[i] = -1
	}
	used := 0
	for _, n := range st.list {
		p := st.assign[n]
		if renumber[p] < 0 {
			renumber[p] = used
			used++
		}
		s.Place(n, renumber[p], st.start[n], st.finish[n])
	}
	return s
}
