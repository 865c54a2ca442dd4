package optimal

// The branch-and-bound core: per-worker search state, the shared
// limiter / incumbent / duplicate-table, and the frontier machinery the
// parallel drain runs on. optimal.go owns the public API and phase
// orchestration; everything here is mechanism.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fastsched/internal/bounds"
	"fastsched/internal/dag"
)

// eps is the float slack for incumbent and bound comparisons.
const eps = 1e-9

// chargeBatch is how many expansions a worker accumulates before
// settling with the shared limiter — one atomic add per batch instead
// of per expansion.
const chargeBatch = 64

// errDeadline is the internal stop cause for wall-clock Budget
// exhaustion; Solve translates it into the anytime contract (best
// schedule so far, nil error) rather than surfacing it.
var errDeadline = errors.New("optimal: wall-clock budget exhausted")

// errFound is the canonical-reconstruction sentinel: the serial pass
// unwinds on the first complete schedule meeting the proven optimum.
var errFound = errors.New("optimal: canonical schedule found")

// problem is the per-Solve immutable description plus the state shared
// by every worker: the expansion limiter, the incumbent, the duplicate
// table, and the drained counters.
type problem struct {
	c      *dag.CSR // the plan's adjacency, slots in stored order
	v      int
	procs  int
	static []float64    // computation-only b-levels, for the CP bound
	order  []dag.NodeID // topological order, for the EST pass
	eqPrev []int32      // previous interchangeable node, or -1

	lim   *limiter
	inc   *incumbent
	table *dupTable

	statsMu sync.Mutex // serializes searcher.drain into the Report
}

// move is one branch decision; a frontier task is a prefix of moves.
type move struct {
	node dag.NodeID
	proc int8
}

// searcher is the per-goroutine depth-first search state. All slices
// are private to the owning worker; sharing happens only through
// problem.
type searcher struct {
	prob  *problem
	table *dupTable

	assign    []int8
	start     []float64
	finish    []float64
	ready     []float64 // per-processor busy-until time
	used      []int32   // per-processor placed-task count (symmetry rule)
	pending   []int32   // unscheduled parents per node
	liveSucc  []int32   // unscheduled successors per node (state key)
	est       []float64 // scratch: per-node start lower bounds
	wf        []float64 // scratch for bounds.WaterFill
	clamped   []float64 // scratch: ready times clamped to a release level
	levels    []estWork // scratch: unscheduled (est, weight) pairs
	cands     [][]cand  // per-depth candidate buffers (phase-A ordering)
	seq       []dag.NodeID
	remaining float64 // unscheduled work

	// Sequencing dominance: schedules are built in nondecreasing
	// (start, node) order — the unique canonical construction of each
	// semi-active schedule — so the exponentially many decision
	// interleavings that reach the same schedule collapse to one.
	lastStart float64
	lastID    int32

	localExp int64 // expansions not yet settled with the limiter

	// canonical-reconstruction mode: hunt for the first schedule meeting
	// target instead of improving the incumbent.
	reconstruct bool
	target      float64
	solAssign   []int8
	solSeq      []dag.NodeID

	// counters, drained into the Report when the worker finishes
	expansions  int64
	boundPrunes int64
	dupPrunes   int64
	domSkips    int64
	steals      int64
}

func newSearcher(prob *problem, table *dupTable) *searcher {
	s := &searcher{
		prob:     prob,
		table:    table,
		assign:   make([]int8, prob.v),
		start:    make([]float64, prob.v),
		finish:   make([]float64, prob.v),
		ready:    make([]float64, prob.procs),
		used:     make([]int32, prob.procs),
		pending:  make([]int32, prob.v),
		liveSucc: make([]int32, prob.v),
		est:      make([]float64, prob.v),
		wf:       make([]float64, prob.procs),
		clamped:  make([]float64, prob.procs),
		levels:   make([]estWork, 0, prob.v),
		cands:    make([][]cand, prob.v),
		seq:      make([]dag.NodeID, 0, prob.v),
	}
	s.reset()
	return s
}

// reset rewinds the searcher to the empty schedule.
func (s *searcher) reset() {
	c := s.prob.c
	for i := 0; i < s.prob.v; i++ {
		s.assign[i] = -1
		s.pending[i] = c.PredOff[i+1] - c.PredOff[i]
		s.liveSucc[i] = c.SuccOff[i+1] - c.SuccOff[i]
	}
	for p := 0; p < s.prob.procs; p++ {
		s.ready[p] = 0
		s.used[p] = 0
	}
	s.seq = s.seq[:0]
	s.remaining = c.TotalWork()
	s.lastStart = math.Inf(-1)
	s.lastID = -1
}

// replay resets and applies a frontier prefix.
func (s *searcher) replay(pre []move) {
	s.reset()
	for _, m := range pre {
		s.apply(m.node, int(m.proc))
	}
}

// drain settles the worker's counters into the report (idempotent: the
// counters zero out so deferred double drains are harmless).
func (s *searcher) drain(rep *Report) {
	s.prob.statsMu.Lock()
	rep.Expansions += s.expansions
	rep.BoundPrunes += s.boundPrunes
	rep.DuplicatePrunes += s.dupPrunes
	rep.DominanceSkips += s.domSkips
	rep.Steals += s.steals
	s.prob.statsMu.Unlock()
	s.expansions, s.boundPrunes, s.dupPrunes, s.domSkips, s.steals = 0, 0, 0, 0, 0
}

// dfs explores every completion of the current partial schedule,
// improving the shared incumbent (or, in reconstruction mode, unwinding
// with errFound on the first schedule meeting the target). It returns a
// non-nil error only to stop the whole search (limiter trip or
// errFound); exhausting a subtree returns nil.
func (s *searcher) dfs(scheduled int) error {
	if scheduled == s.prob.v {
		return s.leaf()
	}
	key := s.stateKey()
	if s.table.seen(key) {
		s.dupPrunes++
		return nil
	}
	lb := s.lowerBound()
	if s.reconstruct {
		if lb > s.target+eps {
			s.boundPrunes++
			s.table.add(key)
			return nil
		}
	} else if lb >= s.prob.inc.load()-eps {
		s.boundPrunes++
		s.table.add(key)
		return nil
	}
	if s.cands[scheduled] == nil {
		s.cands[scheduled] = make([]cand, 0, s.prob.v*s.prob.procs)
	}
	cands := s.cands[scheduled][:0]
	for i := 0; i < s.prob.v; i++ {
		n := dag.NodeID(i)
		if s.assign[n] != -1 || s.pending[n] > 0 {
			continue
		}
		if ep := s.prob.eqPrev[n]; ep >= 0 && s.assign[ep] == -1 {
			// An interchangeable lower-numbered sibling is unscheduled —
			// and, sharing n's predecessor set, ready right now; branching
			// it first covers this subtree up to a node swap.
			s.domSkips++
			continue
		}
		triedEmpty := false
		for p := 0; p < s.prob.procs; p++ {
			if s.used[p] == 0 {
				if triedEmpty {
					continue // symmetric to the first empty processor
				}
				triedEmpty = true
			}
			st := s.startTime(n, p)
			if st < s.lastStart || (st == s.lastStart && int32(n) < s.lastID) {
				// Starting n before the previously appended task violates
				// the canonical construction order; the completion, if it
				// exists, is generated from its own canonical prefix
				// elsewhere in the tree.
				s.domSkips++
				continue
			}
			cands = append(cands, cand{st: st, node: n, proc: int8(p)})
		}
	}
	if !s.reconstruct {
		// Earliest-start-first diving: the leftmost dive approximates a
		// greedy list schedule, so strong incumbents arrive early and the
		// bound bites sooner. The reconstruction pass instead keeps the
		// generation order — ascending (node, processor) — which is what
		// defines the canonical optimal schedule.
		sortCands(cands)
	}
	s.cands[scheduled] = cands // retain the grown buffer for reuse
	for _, c := range cands {
		if err := s.charge(); err != nil {
			return err
		}
		p := int(c.proc)
		prevReady, prevLS, prevLID := s.ready[p], s.lastStart, s.lastID
		s.applyAt(c.node, p, c.st)
		err := s.dfs(scheduled + 1)
		s.undo(c.node, p, prevReady)
		s.lastStart, s.lastID = prevLS, prevLID
		if err != nil {
			return err
		}
	}
	// Recorded only after the subtree is fully explored: a revisit then
	// cannot beat the incumbent (which has only tightened since), so
	// pruning on a later hit is sound.
	s.table.add(key)
	return nil
}

// cand is one branchable (node, processor) placement with its
// semi-active start time.
type cand struct {
	st   float64
	node dag.NodeID
	proc int8
}

// sortCands orders candidates by (start, node, proc) ascending —
// insertion sort, since the list is small and near-sorted.
func sortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		x := cs[i]
		j := i - 1
		for j >= 0 && candLess(x, cs[j]) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = x
	}
}

func candLess(a, b cand) bool {
	if a.st != b.st {
		return a.st < b.st
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.proc < b.proc
}

// leaf scores a complete schedule.
func (s *searcher) leaf() error {
	length := 0.0
	for _, r := range s.ready {
		if r > length {
			length = r
		}
	}
	if s.reconstruct {
		if length <= s.target+eps {
			s.solAssign = append([]int8(nil), s.assign...)
			s.solSeq = append([]dag.NodeID(nil), s.seq...)
			return errFound
		}
		return nil
	}
	s.prob.inc.offer(length, s.assign, s.seq)
	return nil
}

// charge accounts one expansion, settling with the shared limiter every
// chargeBatch expansions — or immediately when the pending batch alone
// would blow the global cap, so tiny MaxExpansions values still trip
// promptly.
func (s *searcher) charge() error {
	s.expansions++
	s.localExp++
	lim := s.prob.lim
	if s.localExp >= chargeBatch || lim.used.Load()+s.localExp > lim.max {
		n := s.localExp
		s.localExp = 0
		return lim.charge(n)
	}
	return lim.err()
}

// startTime is the semi-active start of n if placed on p now.
func (s *searcher) startTime(n dag.NodeID, p int) float64 {
	c := s.prob.c
	dat := 0.0
	for sl := c.PredOff[n]; sl < c.PredOff[n+1]; sl++ {
		from := c.PredFrom[sl]
		arr := s.finish[from]
		if int(s.assign[from]) != p {
			arr += c.PredW[sl]
		}
		if arr > dat {
			dat = arr
		}
	}
	return math.Max(dat, s.ready[p])
}

// apply places n on p at the semi-active start time.
func (s *searcher) apply(n dag.NodeID, p int) {
	s.applyAt(n, p, s.startTime(n, p))
}

// applyAt places n on p at the precomputed start time st. The caller
// saves ready[p], lastStart and lastID for undo.
func (s *searcher) applyAt(n dag.NodeID, p int, st float64) {
	c := s.prob.c
	w := c.NodeW[n]
	s.assign[n] = int8(p)
	s.start[n] = st
	s.finish[n] = st + w
	s.ready[p] = st + w
	s.used[p]++
	s.remaining -= w
	s.seq = append(s.seq, n)
	for sl := c.SuccOff[n]; sl < c.SuccOff[n+1]; sl++ {
		s.pending[c.SuccTo[sl]]--
	}
	for sl := c.PredOff[n]; sl < c.PredOff[n+1]; sl++ {
		s.liveSucc[c.PredFrom[sl]]--
	}
	s.lastStart = st
	s.lastID = int32(n)
}

func (s *searcher) undo(n dag.NodeID, p int, prevReady float64) {
	c := s.prob.c
	for sl := c.PredOff[n]; sl < c.PredOff[n+1]; sl++ {
		s.liveSucc[c.PredFrom[sl]]++
	}
	for sl := c.SuccOff[n]; sl < c.SuccOff[n+1]; sl++ {
		s.pending[c.SuccTo[sl]]++
	}
	s.seq = s.seq[:len(s.seq)-1]
	s.remaining += c.NodeW[n]
	s.used[p]--
	s.ready[p] = prevReady
	s.assign[n] = -1
}

// lowerBound is the admissible per-state bound: the busiest processor,
// a schedule-aware comm-aware critical path (the pairwise colocation
// analysis of bounds.CommAwareEST evaluated against the partial
// schedule), and the water-filling capacity bound on the remaining
// work.
func (s *searcher) lowerBound() float64 {
	lb := 0.0
	minReady := math.Inf(1)
	for _, r := range s.ready {
		if r > lb {
			lb = r
		}
		if r < minReady {
			minReady = r
		}
	}
	c := s.prob.c
	// Canonical construction appends in nondecreasing start order, so
	// every remaining placement starts at or after lastStart; together
	// with the earliest processor-free time that floors every
	// unscheduled node's start.
	floor := minReady
	if s.lastStart > floor {
		floor = s.lastStart
	}
	for _, n := range s.prob.order {
		if s.assign[n] != -1 {
			s.est[n] = s.start[n]
			continue
		}
		t := floor
		lo, hi := c.PredOff[n], c.PredOff[n+1]
		if s.pending[n] == 0 {
			// Ready node: its semi-active start on each processor is
			// exact against the current timeline, and processor ready
			// times only grow down a branch, so the best of them is a
			// true lower bound — far sharper than the colocation cases.
			best := math.Inf(1)
			for p := 0; p < s.prob.procs; p++ {
				if st := s.startTime(n, p); st < best {
					best = st
				}
			}
			if best > t {
				t = best
			}
		} else if hi-lo == 1 {
			if done := s.completion(dag.NodeID(c.PredFrom[lo])); done > t {
				t = done // a single parent can always be colocated
			}
		} else if hi-lo > 1 {
			if pt := s.pairBound(lo, hi); pt > t {
				t = pt
			}
		}
		s.est[n] = t
		if b := t + s.prob.static[n]; b > lb {
			lb = b
		}
	}
	if w := bounds.WaterFill(s.ready, s.remaining, s.wf); w > lb {
		lb = w
	}
	if e := s.energeticBound(lb); e > lb {
		lb = e
	}
	return lb
}

// estWork is one unscheduled node's (release bound, weight) pair for
// the energetic bound.
type estWork struct{ e, w float64 }

// energeticBound stratifies the remaining work by release level: every
// unscheduled node with est >= e executes entirely after e, and
// processor p contributes no capacity before max(e, ready[p]), so the
// work released at or after e must water-fill above that clamped
// profile. The plain water fill is the e = 0 stratum; higher strata
// catch precedence-delayed work the flat area argument dilutes.
func (s *searcher) energeticBound(lb float64) float64 {
	s.levels = s.levels[:0]
	for i := 0; i < s.prob.v; i++ {
		if s.assign[i] == -1 {
			s.levels = append(s.levels, estWork{e: s.est[i], w: s.prob.c.NodeW[i]})
		}
	}
	// Insertion sort by est descending: the slice is tiny and often
	// mostly ordered between siblings.
	lv := s.levels
	for i := 1; i < len(lv); i++ {
		x := lv[i]
		j := i - 1
		for j >= 0 && lv[j].e < x.e {
			lv[j+1] = lv[j]
			j--
		}
		lv[j+1] = x
	}
	suffix := 0.0
	for i := 0; i < len(lv); i++ {
		suffix += lv[i].w
		if i+1 < len(lv) && lv[i+1].e == lv[i].e {
			continue // fold equal release levels into one stratum
		}
		e := lv[i].e
		if e+suffix/float64(s.prob.procs) <= lb {
			continue // even perfect packing cannot beat the current bound
		}
		for p := 0; p < s.prob.procs; p++ {
			s.clamped[p] = math.Max(s.ready[p], e)
		}
		if t := bounds.WaterFill(s.clamped, suffix, s.wf); t > lb {
			lb = t
		}
	}
	return lb
}

// completion is the lower bound on a node's finish time: exact for
// scheduled nodes, est + weight otherwise.
func (s *searcher) completion(n dag.NodeID) float64 {
	if s.assign[n] != -1 {
		return s.finish[n]
	}
	return s.est[n] + s.prob.c.NodeW[n]
}

// pairBound is the join-node case analysis of bounds.pairEST evaluated
// mid-search over the predecessor slots [lo, hi): starts and finishes
// of scheduled parents are exact, and the colocate-both case is dropped
// when the two binding parents are already pinned to different
// processors.
func (s *searcher) pairBound(lo, hi int32) float64 {
	c := s.prob.c
	var floor float64
	var a, b dag.NodeID // top-2 parents by arrival
	arrA, arrB := math.Inf(-1), math.Inf(-1)
	for sl := lo; sl < hi; sl++ {
		p := dag.NodeID(c.PredFrom[sl])
		done := s.completion(p)
		if done > floor {
			floor = done
		}
		if arr := done + c.PredW[sl]; arr > arrA {
			b, arrB = a, arrA
			a, arrA = p, arr
		} else if arr > arrB {
			b, arrB = p, arr
		}
	}
	sa, wa := s.startBound(a), c.NodeW[a]
	sb, wb := s.startBound(b), c.NodeW[b]
	ca, cb := s.completion(a), s.completion(b)
	caseA := math.Max(ca, arrB) // n with a, b remote
	caseB := math.Max(cb, arrA) // n with b, a remote
	caseBoth := math.Inf(1)
	pa, pb := s.assign[a], s.assign[b]
	if pa == -1 || pb == -1 || pa == pb {
		caseBoth = math.Min(
			math.Max(sb, ca)+wb, // a then b on the shared processor
			math.Max(sa, cb)+wa) // b then a
	}
	pair := math.Min(caseBoth, math.Min(caseA, caseB))
	return math.Max(floor, pair)
}

func (s *searcher) startBound(n dag.NodeID) float64 {
	if s.assign[n] != -1 {
		return s.start[n]
	}
	return s.est[n]
}

// stateKey canonically hashes the partial schedule: the scheduled node
// set, plus a commutative combination of per-processor digests (ready
// time and the live placed nodes — those whose finish times can still
// affect an unscheduled child). Renaming processors permutes the
// per-processor digests, leaving the sum — and hence the key —
// unchanged, so the table also catches processor-symmetric duplicates
// the first-empty rule misses.
func (s *searcher) stateKey() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	var word uint64
	for i := 0; i < s.prob.v; i++ {
		if s.assign[i] != -1 {
			word |= 1 << uint(i&63)
		}
		if i&63 == 63 || i == s.prob.v-1 {
			h = (h ^ word) * fnvPrime
			word = 0
		}
	}
	// The sequencing cursor is part of the state: two physically equal
	// partial schedules with different (lastStart, lastID) admit
	// different canonical completions, so they must not alias.
	h = (h ^ math.Float64bits(s.lastStart)) * fnvPrime
	h = (h ^ uint64(uint32(s.lastID))) * fnvPrime
	var sum uint64
	for p := 0; p < s.prob.procs; p++ {
		ph := uint64(fnvOffset)
		ph = (ph ^ math.Float64bits(s.ready[p])) * fnvPrime
		for i := 0; i < s.prob.v; i++ {
			if int(s.assign[i]) == p && s.liveSucc[i] > 0 {
				ph = (ph ^ uint64(i+1)) * fnvPrime
				ph = (ph ^ math.Float64bits(s.finish[i])) * fnvPrime
			}
		}
		sum += splitmix64(ph)
	}
	key := splitmix64(h ^ sum)
	if key == 0 {
		key = 1 // 0 marks an empty table slot
	}
	return key
}

// branches lists the (node, processor) moves dfs would explore from the
// current state, dominance rules applied and in dfs's earliest-start-
// first order — the frontier expansion uses it to split the root into
// subproblems. The order matters: the frontier's first prefixes then
// lie on the serial search's first dive, so its early incumbents are
// found at any worker count instead of only when one frontier prefix
// happens to start on that path.
func (s *searcher) branches() []move {
	var cands []cand
	for i := 0; i < s.prob.v; i++ {
		n := dag.NodeID(i)
		if s.assign[n] != -1 || s.pending[n] > 0 {
			continue
		}
		if ep := s.prob.eqPrev[n]; ep >= 0 && s.assign[ep] == -1 {
			continue
		}
		triedEmpty := false
		for p := 0; p < s.prob.procs; p++ {
			if s.used[p] == 0 {
				if triedEmpty {
					continue
				}
				triedEmpty = true
			}
			st := s.startTime(n, p)
			if st < s.lastStart || (st == s.lastStart && int32(n) < s.lastID) {
				continue
			}
			cands = append(cands, cand{st: st, node: n, proc: int8(p)})
		}
	}
	sortCands(cands)
	out := make([]move, len(cands))
	for i, c := range cands {
		out[i] = move{node: c.node, proc: c.proc}
	}
	return out
}

// expandFrontier splits the root breadth-first into at least `target`
// move prefixes (or bottoms out on a small graph). The workers then
// drain the prefixes through an atomic cursor; BFS keeps the prefixes
// shallow and balanced so no worker inherits a degenerate share.
func (s *searcher) expandFrontier(target int) ([][]move, error) {
	queue := [][]move{nil}
	for len(queue) > 0 && len(queue) < target {
		pre := queue[0]
		if len(pre) == s.prob.v {
			break // complete schedules reached before the target: stop splitting
		}
		queue = queue[1:]
		s.replay(pre)
		for _, m := range s.branches() {
			if err := s.charge(); err != nil {
				return nil, err
			}
			child := make([]move, len(pre), len(pre)+1)
			copy(child, pre)
			queue = append(queue, append(child, m))
		}
	}
	return queue, nil
}

// limiter is the shared stop authority: expansion cap, wall-clock
// deadline, and context, folded into a single sticky cause so every
// worker unwinds with the same error.
type limiter struct {
	max      int64
	used     atomic.Int64
	deadline time.Time
	ctx      context.Context

	stopped atomic.Bool
	mu      sync.Mutex
	cause   error
}

// charge settles n expansions and re-checks every stop source.
func (l *limiter) charge(n int64) error {
	if err := l.err(); err != nil {
		return err
	}
	if l.used.Add(n) > l.max {
		return l.halt(ErrBudgetExceeded)
	}
	if !l.deadline.IsZero() && time.Now().After(l.deadline) {
		return l.halt(errDeadline)
	}
	if l.ctx != nil {
		select {
		case <-l.ctx.Done():
			return l.halt(l.ctx.Err())
		default:
		}
	}
	return nil
}

// err reports the sticky stop cause, nil while running.
func (l *limiter) err() error {
	if !l.stopped.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause
}

// halt records the first stop cause and returns it (later causes are
// dropped so all workers agree).
func (l *limiter) halt(err error) error {
	l.mu.Lock()
	if l.cause == nil {
		l.cause = err
	}
	err = l.cause
	l.mu.Unlock()
	l.stopped.Store(true)
	return err
}

// halted returns the final cause after the workers have joined.
func (l *limiter) halted() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause
}

// incumbent is the shared best-schedule-so-far: an atomic length for
// the hot pruning reads plus a mutex-guarded copy of the schedule
// itself, updated only on strict improvement.
type incumbent struct {
	bits atomic.Uint64 // Float64bits of the best length (monotone CAS-min)

	mu     sync.Mutex
	length float64
	assign []int8
	seq    []dag.NodeID
}

func newIncumbent() *incumbent {
	c := &incumbent{length: math.Inf(1)}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// load is the racy fast read for pruning. Non-negative float64s order
// the same as their bit patterns, so CAS-min on the bits is CAS-min on
// the value.
func (c *incumbent) load() float64 { return math.Float64frombits(c.bits.Load()) }

// offer installs a complete schedule if it strictly improves the bound.
// The slices are copied under the lock; the caller keeps ownership.
func (c *incumbent) offer(length float64, assign []int8, seq []dag.NodeID) {
	for {
		cur := c.bits.Load()
		if length >= math.Float64frombits(cur)-eps {
			return
		}
		if c.bits.CompareAndSwap(cur, math.Float64bits(length)) {
			break
		}
	}
	c.mu.Lock()
	// Recheck under the lock: a racing offer may have stored a better
	// schedule between our CAS and here.
	if length < c.length {
		c.length = length
		c.assign = append(c.assign[:0], assign...)
		c.seq = append(c.seq[:0], seq...)
	}
	c.mu.Unlock()
}

// snapshot returns the best schedule found so far.
func (c *incumbent) snapshot() (float64, []int8, []dag.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.length, append([]int8(nil), c.assign...), append([]dag.NodeID(nil), c.seq...)
}

// dupTable is the bounded lossy duplicate-state table: open slots of
// raw keys, overwritten on collision. A hit requires exact key
// equality, so a false prune needs a full 64-bit hash collision between
// live states — vanishingly unlikely at the table sizes and state
// counts involved, and cross-checked by the differential fuzz suite.
type dupTable struct {
	mask  uint64
	slots []atomic.Uint64
}

func newDupTable(bits uint) *dupTable {
	if bits > 28 {
		bits = 28
	}
	return &dupTable{
		mask:  1<<bits - 1,
		slots: make([]atomic.Uint64, 1<<bits),
	}
}

func (t *dupTable) seen(key uint64) bool {
	return t.slots[key&t.mask].Load() == key
}

func (t *dupTable) add(key uint64) {
	t.slots[key&t.mask].Store(key)
}

// atomicCursor deals frontier indices to workers — claiming an index is
// one atomic add, the whole work-stealing protocol.
type atomicCursor struct{ n atomic.Int64 }

func (c *atomicCursor) next() int { return int(c.n.Add(1) - 1) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
