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

// debugFullReplay forces every evaluateFrom call to replay the whole
// list, disabling the checkpoint shortcut while keeping the CSR kernel.
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
// evaluateFrom restores the per-processor ready times from the nearest
// checkpoint at or before q in O(p) and replays only the tail.
type state struct {
	list  []dag.NodeID // topological priority order (phase-1 list)
	procs int

	csr *dag.CSR // flat adjacency layout; immutable, shared by clones
	pos []int    // node -> list position; shared read-only by clones

	assign []int // processor of each node
	start  []float64
	finish []float64
	ready  []float64 // scratch: per-processor ready time
	length float64

	// Checkpoints: before processing list position i*ckK the replay loop
	// snapshots the p ready times into ckReady[i*procs:] and the running
	// max finish into ckLen[i]. A checkpoint at position c stays valid as
	// long as no assignment at a position < c changed, which dirty
	// tracks: it is the smallest list position whose assignment may
	// differ from the one the tables were computed under (len(list) when
	// the tables are fully consistent).
	ckK     int
	ckReady []float64
	ckLen   []float64
	dirty   int

	// Undo journal for tryTransfer/revertTransfer: the suffix of the
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
	// list positions the most recent tryTransfer journaled (the planned
	// replay suffix), for the trajectory recording; an incumbent cutoff
	// replays fewer positions but records the same planned length so
	// telemetry semantics do not depend on the cutoff.
	tele       telemetry
	lastReplay int

	// cutoff enables the incumbent-bound replay abort: a candidate
	// replay whose running length already reaches the bound cannot be
	// accepted, so it stops early and is reverted. With only the local
	// best as the bound this is decision-equivalent to a full
	// evaluation (the schedule length is non-decreasing over a replay),
	// so PFAST/multi-start workers keep their bit-exact determinism.
	// incumbent, when non-nil, additionally shares the best makespan
	// across workers; the cross-worker bound makes a worker's
	// trajectory timing-dependent, so it is only wired up in Budget
	// (anytime) mode, where fixed-seed determinism is already waived.
	cutoff    bool
	incumbent *sharedBound

	fullReplay bool // mirror of debugFullReplay, captured at init
}

// init sizes every table of st for (csr, list, procs, ckK), reusing the
// slices' existing capacity. Checkpoint 0 (the empty machine) is
// zeroed because the first full replay restores from it before
// rewriting it; every other table is fully overwritten before it is
// read, so recycled scratch never leaks values into a run (the
// differential tests pin this by comparing pooled runs against fresh
// ones bit for bit).
func (st *state) init(list []dag.NodeID, csr *dag.CSR, procs, ckK int) {
	v := csr.NumNodes()
	if ckK < 1 {
		ckK = 1
	}
	numCk := 0
	if v > 0 {
		numCk = (v-1)/ckK + 1
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
	st.dirty = 0
	st.undoStart = resizeF64(st.undoStart, v)
	st.undoFinish = resizeF64(st.undoFinish, v)
	st.undoCk = resizeF64(st.undoCk, numCk*procs)
	st.undoCkLen = resizeF64(st.undoCkLen, numCk)
	st.tele = telemetry{}
	st.lastReplay = 0
	st.cutoff = false
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
// placing each node on whichever of its candidate processors (parents'
// processors plus one fresh processor) gives the earliest start time,
// where a processor's availability is its ready time (no gap search).
func (st *state) initialReadyTime() {
	for i := range st.ready {
		st.ready[i] = 0
	}
	used := 0 // processors 0..used-1 have at least one task
	for _, n := range st.list {
		bestProc, bestStart := -1, 0.0
		consider := func(p int) {
			s := st.datOn(n, p)
			if r := st.ready[p]; r > s {
				s = r
			}
			if bestProc == -1 || s < bestStart {
				bestProc, bestStart = p, s
			}
		}
		seen := false
		for i := st.csr.PredOff[n]; i < st.csr.PredOff[n+1]; i++ {
			p := st.assign[st.csr.PredFrom[i]]
			// Parent processors can repeat; consider handles duplicates
			// harmlessly (same candidate, same value).
			consider(p)
			seen = true
		}
		if used < st.procs {
			consider(used) // the fresh processor
			seen = true
		}
		if !seen {
			// Entry node with every processor in use: consider them all.
			for p := 0; p < used; p++ {
				consider(p)
			}
		}
		st.place(n, bestProc, bestStart)
		if bestProc == used {
			used++
		}
	}
	st.length = st.maxFinish()
}

// initialInsertion is the ablation variant of phase 1: like
// initialReadyTime but each candidate processor is searched for the
// earliest idle slot that fits the node (insertion scheduling). g is
// the graph the state's CSR was built from; listsched's slot search
// runs on it.
func (st *state) initialInsertion(g *dag.Graph) {
	m := listsched.NewMachine(st.procs)
	sc := sched.New(g.NumNodes())
	var scratch listsched.CandidateScratch
	for _, n := range st.list {
		w := g.Weight(n)
		bestProc := -1
		bestStart := 0.0
		consider := func(p int) {
			dat := listsched.DAT(g, sc, n, p)
			s := m.Proc(p).EarliestStart(dat, w)
			if bestProc == -1 || s < bestStart {
				bestProc, bestStart = p, s
			}
		}
		cands := scratch.CandidateProcs(g, sc, m, n)
		for _, p := range cands {
			consider(p)
		}
		m.Proc(bestProc).Insert(n, bestStart, w)
		sc.Place(n, bestProc, bestStart, bestStart+w)
		st.assign[n] = bestProc
		st.start[n] = bestStart
		st.finish[n] = bestStart + w
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
// step of the paper's search loop; the search strategies use
// evaluateFrom to replay only the invalidated suffix instead.
func (st *state) evaluate() float64 {
	st.dirty = 0
	return st.evaluateFrom(0)
}

// markDirty records that the assignment at list position q changed
// without the tables being recomputed (a reverted move): the next
// evaluateFrom must replay from no later than q.
func (st *state) markDirty(q int) {
	if q < st.dirty {
		st.dirty = q
	}
}

// flush makes the tables consistent with the current assignment after a
// search loop whose last move may have been reverted. It is a no-op
// when the last evaluation already matches the assignment.
func (st *state) flush() {
	if st.dirty < len(st.list) {
		st.evaluateFrom(st.dirty)
	}
}

// evaluateFrom replays the list suffix starting at the nearest
// checkpoint at or before min(from, dirty). Cost: O(e_suffix + p +
// (v_suffix/K)·p) against O(e) for a full replay.
func (st *state) evaluateFrom(from int) float64 {
	v := len(st.list)
	if v == 0 {
		st.length = 0
		st.dirty = 0
		return 0
	}
	if st.dirty < from {
		from = st.dirty
	}
	if st.fullReplay {
		from = 0
	}
	return st.replayFrom(from / st.ckK * st.ckK)
}

// replayFrom restores the per-processor ready times and the running max
// finish in O(p) from the checkpoint at list position base (which must
// be a multiple of ckK, with every earlier checkpoint valid), then
// recomputes start/finish for the tail only, refreshing every
// checkpoint it passes. The replay performs the identical operation
// sequence on the identical prefix values as a full replay, so the
// results (including the max reductions) are bit-equivalent.
func (st *state) replayFrom(base int) float64 {
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
		}
	}
	st.length = length
	st.dirty = v
	return length
}

// replayFromBound is replayFrom with an abort bound: the replay stops
// as soon as the running schedule length reaches bound, reporting
// complete == false. Because the length is non-decreasing over a
// replay, an aborted candidate's final length would also have reached
// the bound, so aborting cannot change an accept/reject decision made
// against a threshold <= bound. An aborted replay leaves the tables
// mid-rewrite: the caller MUST revertTransfer (the undo journal covers
// everything the partial replay touched). st.length and st.dirty are
// only updated on completion.
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
	st.dirty = v
	return length, true
}

// tryTransfer reassigns n to processor p and re-evaluates the schedule
// incrementally, first journaling the table suffix and checkpoint rows
// the replay will overwrite. The caller either keeps the move (no
// further action: the tables are consistent with the new assignment) or
// calls revertTransfer to restore the journaled state exactly. The
// tables must be consistent (dirty == len(list)) on entry; every search
// strategy maintains that invariant by reverting rejected moves.
func (st *state) tryTransfer(n dag.NodeID, p int) float64 {
	return st.replayFrom(st.journalTransfer(n, p))
}

// tryTransferBound is tryTransfer with an abort bound (see
// replayFromBound). When complete is false the move cannot beat the
// bound; the caller must reject it with revertTransfer, which restores
// the journaled state exactly even after a partial replay.
func (st *state) tryTransferBound(n dag.NodeID, p int, bound float64) (float64, bool) {
	return st.replayFromBound(st.journalTransfer(n, p), bound)
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

// revertTransfer undoes the most recent tryTransfer with plain copies:
// the reverted tables are bit-identical to the pre-transfer state, so a
// rejected candidate leaves no trace — numerically or in the checkpoint
// rows — and the next tryTransfer replays only its own suffix.
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

// search runs the paper's local search: MaxSteps random transfer
// attempts of blocking nodes to random processors, keeping only strict
// improvements of the schedule length. The context is checked each
// step; on cancellation the tables hold the best schedule found so far
// (every rejected move was reverted) and ctx.Err() is returned.
func (st *state) search(ctx context.Context, blocking []dag.NodeID, maxSteps int, rng *rand.Rand) error {
	if len(blocking) == 0 || st.procs < 2 {
		// With one processor or no movable node the neighborhood is empty.
		st.evaluate()
		return stopErr(ctx)
	}
	best := st.evaluate()
	st.tele.best.Set(best)
	for step := 0; step < maxSteps; step++ {
		if err := stopErr(ctx); err != nil {
			return err
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

// tryCandidate evaluates moving n to p against the acceptance
// threshold best. With the cutoff disabled (the serial search, whose
// trajectories are pinned by golden files) it is a plain tryTransfer.
// With it enabled, the replay aborts once its running length reaches
// best - 1e-12: past that point the final candidate could not satisfy
// the strict-improvement test either, so the decision — and therefore
// the whole search trajectory for a fixed seed — is unchanged. A
// worker in budget mode additionally folds the shared cross-worker
// incumbent into the bound.
func (st *state) tryCandidate(n dag.NodeID, p int, best float64) (float64, bool) {
	if !st.cutoff {
		return st.tryTransfer(n, p), true
	}
	bound := best - 1e-12
	if st.incumbent != nil {
		if b := st.incumbent.load() - 1e-12; b < bound {
			bound = b
		}
	}
	cand, complete := st.tryTransferBound(n, p, bound)
	if !complete {
		st.tele.cutoffs.Inc()
	}
	return cand, complete
}

// searchBudget is the anytime variant of the greedy search: random
// transfer attempts until the wall-clock budget expires or the context
// is cancelled, checking the clock every few steps to keep the loop
// cheap.
func (st *state) searchBudget(ctx context.Context, blocking []dag.NodeID, budget time.Duration, rng *rand.Rand) error {
	if len(blocking) == 0 || st.procs < 2 {
		st.evaluate()
		return stopErr(ctx)
	}
	deadline := time.Now().Add(budget)
	best := st.evaluate()
	st.tele.best.Set(best)
	for step := 0; ; step++ {
		if err := stopErr(ctx); err != nil {
			return err
		}
		if step%32 == 0 && !time.Now().Before(deadline) {
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

// searchSteepest applies best-improvement local search: each round
// evaluates every (blocking node, processor) transfer and commits the
// one with the largest strict improvement, stopping early at a local
// minimum. rounds bounds the number of committed moves. The |blocking|·p
// evaluations per round all replay from the moved node's position, so
// this strategy gains the most from the incremental kernel.
func (st *state) searchSteepest(ctx context.Context, blocking []dag.NodeID, rounds int) error {
	if len(blocking) == 0 || st.procs < 2 {
		st.evaluate()
		return stopErr(ctx)
	}
	best := st.evaluate()
	st.tele.best.Set(best)
	for round := 0; round < rounds; round++ {
		bestNode := dag.None
		bestProc := -1
		bestLen := best
		for _, n := range blocking {
			old := st.assign[n]
			for p := 0; p < st.procs; p++ {
				if p == old {
					continue
				}
				// A round costs O(|blocking|·p) evaluations, so the
				// cancellation check sits on the innermost loop; the
				// tables are consistent here (the previous candidate
				// was reverted), holding the best committed schedule.
				if err := stopErr(ctx); err != nil {
					return err
				}
				st.tele.steps.Inc()
				if cand := st.tryTransfer(n, p); cand < bestLen-1e-12 {
					bestNode, bestProc, bestLen = n, p, cand
				}
				st.revertTransfer()
				st.tele.reverted.Inc()
			}
		}
		if bestNode == dag.None {
			break // local minimum
		}
		from := st.assign[bestNode]
		st.tryTransfer(bestNode, bestProc) // commit the round's best move
		best = bestLen
		st.tele.accepted.Inc()
		st.tele.best.Set(best)
		st.tele.record(round, bestNode, from, bestProc, best, best, true, st.lastReplay)
	}
	return nil
}

// searchAnnealing runs simulated annealing over the same neighborhood:
// random transfers, accepting worsening moves with probability
// exp(-Δ/T) under geometric cooling, and finishing on the best
// assignment seen. This addresses the paper's stated limitation that
// greedy search "may get stuck in a poor local minimum".
func (st *state) searchAnnealing(ctx context.Context, blocking []dag.NodeID, maxSteps int, rng *rand.Rand) error {
	if len(blocking) == 0 || st.procs < 2 {
		st.evaluate()
		return stopErr(ctx)
	}
	cur := st.evaluate()
	bestAssign := append([]int(nil), st.assign...)
	best := cur
	// Annealing walks through worsening states, so cancellation (like
	// normal termination) must restore the best assignment seen before
	// returning.
	restore := func() {
		copy(st.assign, bestAssign)
		st.evaluate()
	}
	// Initial temperature: a move that worsens the schedule by 5% is
	// accepted with probability 1/e; cool to 1/1000 of that.
	t0 := 0.05 * cur
	if t0 <= 0 {
		t0 = 1
	}
	tEnd := t0 / 1000
	cooling := math.Pow(tEnd/t0, 1/math.Max(1, float64(maxSteps-1)))
	temp := t0
	st.tele.best.Set(best)
	for step := 0; step < maxSteps; step++ {
		if err := stopErr(ctx); err != nil {
			restore()
			return err
		}
		n := blocking[rng.Intn(len(blocking))]
		p := rng.Intn(st.procs)
		if p == st.assign[n] {
			temp *= cooling
			st.tele.skipped.Inc()
			continue
		}
		from := st.assign[n]
		st.tele.steps.Inc()
		cand := st.tryTransfer(n, p)
		delta := cand - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = cand
			if cand < best-1e-12 {
				best = cand
				copy(bestAssign, st.assign)
				st.tele.best.Set(best)
			}
			st.tele.accepted.Inc()
			st.tele.record(step, n, from, p, cand, best, true, st.lastReplay)
		} else {
			st.revertTransfer()
			st.tele.reverted.Inc()
			st.tele.record(step, n, from, p, cand, best, false, st.lastReplay)
		}
		temp *= cooling
	}
	restore()
	return nil
}

// searchParallel is PFAST: `workers` independent searchers start from the
// same phase-1 assignment with seeds seed, seed+1, ...; the shortest
// final schedule wins (ties broken by lowest worker index so the result
// is deterministic). Each worker runs the configured search strategy, or
// the anytime budget search when budget is positive.
//
// The start points form a pool drained by up to GOMAXPROCS goroutines
// through an atomic cursor (work stealing), instead of one goroutine
// per start: a start's outcome depends only on its seed and the shared
// phase-1 state — never on which goroutine ran it or in what order —
// so the deterministic reduction over worker-indexed bests is
// unaffected by the stealing. Each goroutine checks out one pooled
// scratch state and resets it between starts. In budget mode the
// searchers additionally share an atomic incumbent bound that cuts
// non-improving suffix replays early across workers (deterministic
// modes restrict the cutoff to the private local best; see tryCandidate).
//
// Every start is wrapped in recover, so a panicking search surfaces as
// an error from Schedule instead of killing the process. A cancelled
// context is not fatal: each start stops at its best-so-far schedule,
// the best of those is committed, and ctx.Err() is returned alongside
// it.
func (st *state) searchParallel(ctx context.Context, blocking []dag.NodeID, maxSteps int, seed int64, workers int, strategy Strategy, budget time.Duration) error {
	type result struct {
		assign []int
		length float64
	}
	results := make([]result, workers)
	errs := make([]error, workers)
	var incumbent *sharedBound
	if budget > 0 {
		incumbent = newSharedBound()
	}
	runStart := func(w int, local *state) {
		defer func() {
			if r := recover(); r != nil {
				errs[w] = fmt.Errorf("fast: search worker %d panicked: %v", w, r)
				results[w].assign = nil
			}
		}()
		if w == debugPanicWorker {
			panic("injected test panic")
		}
		local.resetToBase(st)
		local.tele.worker = w
		local.cutoff = true
		local.incumbent = incumbent
		rng := rand.New(rand.NewSource(seed + int64(w)))
		errs[w] = runSearch(ctx, local, blocking, maxSteps, strategy, budget, rng)
		results[w] = result{assign: append([]int(nil), local.assign...), length: local.length}
	}
	var cursor atomic.Int64
	goroutines := runtime.GOMAXPROCS(0)
	if goroutines > workers {
		goroutines = workers
	}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := st.cloneFromPool()
			defer local.release()
			for {
				w := int(cursor.Add(1)) - 1
				if w >= workers {
					return
				}
				runStart(w, local)
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

// runSearch dispatches one searcher over the shared strategy switch so
// the serial path, PFAST workers, and multi-start workers stay in sync.
// It returns ctx.Err() when the search was cut short; the state then
// holds the strategy's best-so-far schedule.
func runSearch(ctx context.Context, st *state, blocking []dag.NodeID, maxSteps int, strategy Strategy, budget time.Duration, rng *rand.Rand) error {
	switch {
	case strategy == SteepestDescent:
		return st.searchSteepest(ctx, blocking, maxSteps)
	case strategy == Annealing:
		return st.searchAnnealing(ctx, blocking, maxSteps, rng)
	case budget > 0:
		return st.searchBudget(ctx, blocking, budget, rng)
	default:
		return st.search(ctx, blocking, maxSteps, rng)
	}
}

// cloneFromPool checks a scratch state out of the package pool and
// shapes it like st for an independent searcher. The list, CSR layout
// and telemetry handles are shared read-only; the position
// index is copied, not aliased — a pooled state must own every slice
// it may later resize in place, or a reuse for a different run would
// scribble over the base state's tables. The mutable tables are sized
// but not filled; resetToBase snaps them to the base schedule before
// each start.
func (st *state) cloneFromPool() *state {
	c := statePool.Get().(*state)
	if c.assign == nil {
		st.tele.poolNews.Inc()
	} else {
		st.tele.poolGets.Inc()
	}
	v := len(st.assign)
	c.list, c.procs, c.csr = st.list, st.procs, st.csr
	c.pos = resizeInt(c.pos, v)
	copy(c.pos, st.pos)
	c.assign = resizeInt(c.assign, v)
	c.start = resizeF64(c.start, v)
	c.finish = resizeF64(c.finish, v)
	c.ready = resizeF64(c.ready, st.procs)
	c.ckK = st.ckK
	c.ckReady = resizeF64(c.ckReady, len(st.ckReady))
	c.ckLen = resizeF64(c.ckLen, len(st.ckLen))
	c.undoStart = resizeF64(c.undoStart, v)
	c.undoFinish = resizeF64(c.undoFinish, v)
	c.undoCk = resizeF64(c.undoCk, len(st.undoCk))
	c.undoCkLen = resizeF64(c.undoCkLen, len(st.undoCkLen))
	c.tele = st.tele // shared counters: workers aggregate atomically
	c.lastReplay = 0
	c.cutoff = false
	c.incumbent = nil
	c.fullReplay = st.fullReplay
	return c
}

// resetToBase snaps the mutable tables back to base's schedule so the
// next start searches from the same phase-1 state. Only checkpoint 0
// needs zeroing: the clone starts fully dirty, so its first evaluation
// replays from position 0 — restoring from checkpoint 0 before
// rewriting every later checkpoint row it passes.
func (st *state) resetToBase(base *state) {
	copy(st.assign, base.assign)
	copy(st.start, base.start)
	copy(st.finish, base.finish)
	st.length = base.length
	for i := 0; i < st.procs && i < len(st.ckReady); i++ {
		st.ckReady[i] = 0
	}
	if len(st.ckLen) > 0 {
		st.ckLen[0] = 0
	}
	st.dirty = 0
	st.lastReplay = 0
}

// buildSchedule converts the state tables into a sched.Schedule with
// compact processor numbering (processors renumbered 0..k-1 in order of
// first use, so reports show contiguous PE indices).
func (st *state) buildSchedule() *sched.Schedule {
	return buildScheduleFrom(st.procs, st.list, st.assign, st.start, st.finish)
}

// buildScheduleFrom is buildSchedule over bare tables, so multi-start
// can materialize the winning start's copied-out result after its
// pooled state has been recycled.
func buildScheduleFrom(procs int, list []dag.NodeID, assign []int, start, finish []float64) *sched.Schedule {
	s := sched.New(len(assign))
	renumber := make([]int, procs)
	for i := range renumber {
		renumber[i] = -1
	}
	used := 0
	for _, n := range list {
		p := assign[n]
		if renumber[p] < 0 {
			renumber[p] = used
			used++
		}
		s.Place(n, renumber[p], start[n], finish[n])
	}
	return s
}
