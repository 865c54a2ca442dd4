// Package optimal finds provably optimal schedules for small task
// graphs by parallel branch-and-bound, giving the repository a ground
// truth to measure the heuristics' optimality gaps against (see the gap
// study in internal/experiments and the boxing suite in
// internal/schedtest).
//
// The search branches over (ready node, processor) decisions and
// explores exactly the semi-active schedules — every task starts at
// max(processor ready time, data arrival time) for its sequence — a set
// known to contain an optimal schedule. Four prunings make v ≈ 25–30
// reachable where the naive search stalled near v ≈ 12:
//
//   - a comm-aware critical-path bound and a water-filling remaining
//     area bound per state (internal/bounds);
//   - processor-symmetry breaking (only the first empty processor is
//     ever tried);
//   - node-equivalence dominance (among interchangeable ready siblings
//     only the lowest-numbered is branched);
//   - a bounded, lossy hash-consed duplicate-state table that collapses
//     the exponentially many decision orders reaching the same partial
//     schedule.
//
// The search itself is parallel: the root is expanded breadth-first
// into a frontier of subproblems that worker goroutines drain through
// an atomic cursor (the PFAST work-stealing shape), sharing an atomic
// incumbent bound. The result is deterministic regardless of worker
// count: the proven optimal makespan is unique, and the returned
// schedule is rebuilt by a serial canonical pass (see reconstruct).
package optimal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"fastsched/internal/bounds"
	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// DefaultMaxExpansions bounds the search effort before giving up.
const DefaultMaxExpansions = 5_000_000

// DefaultProcs is the processor count used when the caller passes
// procs <= 0: beyond four processors the optimum rarely changes for
// instances this solver can handle and the branching explodes. The
// substitution is surfaced in Report.Procs/ProcsDefaulted rather than
// applied silently.
const DefaultProcs = 4

// maxProcs caps the processor count the state representation supports.
const maxProcs = 127

// ErrBudgetExceeded reports that the branch-and-bound search hit its
// expansion cap before proving optimality. Callers that feed the solver
// arbitrary instances (property tests, sweeps) should treat it as
// "instance too large", not as a solver defect.
var ErrBudgetExceeded = errors.New("optimal: expansion budget exceeded (instance too large for exact solving)")

var errEmpty = errors.New("optimal: empty graph")

// Solver is the exact scheduler. The zero value searches with the
// default budget on all available cores.
type Solver struct {
	// MaxExpansions caps the number of branch expansions across all
	// workers; exceeding it makes Schedule return ErrBudgetExceeded
	// (Solve returns the best-so-far schedule with Proven=false).
	// Zero means DefaultMaxExpansions.
	MaxExpansions int64
	// Budget, when positive, bounds the wall-clock search time: when it
	// expires, Solve returns the best schedule found so far with
	// Proven=false and no error (the anytime contract, matching
	// fast.Options.Budget).
	Budget time.Duration
	// Context, when non-nil, bounds the whole run; on cancellation
	// Solve returns the best-so-far schedule together with ctx.Err()
	// (matching fast.Options.Context).
	Context context.Context
	// Parallelism is the number of search workers; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial search.
	Parallelism int
	// TableBits sizes the duplicate-state table at 1<<TableBits slots
	// (8 bytes each, shared by all workers); 0 picks a default scaled
	// to the graph size (15 for v <= 14 up to 21 for v > 20).
	TableBits uint
	// Metrics, when non-nil, receives the search counters
	// (optimal.expansions, optimal.prune.*, optimal.steals, ...) after
	// each Solve. A nil sink costs nothing.
	Metrics obs.Sink
}

// New returns a Solver with the default configuration.
func New() *Solver { return &Solver{} }

// Name implements sched.Scheduler.
func (*Solver) Name() string { return "OPT" }

// Report describes how a Solve run went: whether optimality was proven,
// the effective machine size, and the work the pruned search did.
type Report struct {
	// Proven is true when the search ran to completion, so Best is the
	// exact optimal makespan and the schedule is the canonical optimum.
	Proven bool
	// Best is the makespan of the returned schedule — the proven
	// optimum when Proven, otherwise the best incumbent found.
	Best float64
	// LowerBound is the root relaxation (bounds.ComputeCSR combined with
	// the solver's state bound); Best/LowerBound caps how far even an
	// unproven result can sit from the optimum.
	LowerBound float64
	// Procs is the processor count actually solved for;
	// ProcsDefaulted reports that it came from the procs <= 0 default
	// (min(v, DefaultProcs)) rather than from the caller.
	Procs          int
	ProcsDefaulted bool
	// Workers is the number of parallel search workers used.
	Workers int
	// FrontierTasks is the number of subproblems the root was split
	// into; Steals counts how many a worker claimed from the shared
	// cursor.
	FrontierTasks int
	Steals        int64
	// Expansions counts (node, processor) branch expansions across all
	// workers, including the canonical reconstruction pass.
	Expansions int64
	// BoundPrunes, DuplicatePrunes and DominanceSkips count subtrees
	// cut by the lower bound, the duplicate-state table, and the
	// node-equivalence rule respectively.
	BoundPrunes     int64
	DuplicatePrunes int64
	DominanceSkips  int64
}

// Schedule implements sched.Scheduler, returning a provably optimal
// schedule on the given processor count (procs <= 0 selects
// min(v, DefaultProcs); see Report.ProcsDefaulted for the surfaced
// default). When the expansion or wall-clock budget runs out before the
// proof completes it returns ErrBudgetExceeded rather than a silently
// suboptimal schedule; Solve is the anytime variant that returns the
// incumbent instead. g is compiled, which validates it.
func (o *Solver) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, o.ScheduleCompiled)
}

// ScheduleCompiled is Schedule on a plan: the search reads only the
// plan's CSR and levels.
func (o *Solver) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	s, rep, err := o.SolveCompiled(cg, procs)
	if err != nil {
		return nil, err
	}
	if !rep.Proven {
		return nil, ErrBudgetExceeded
	}
	return s, nil
}

// Solve runs the branch-and-bound search and reports how far it got.
// The returned schedule is always valid: the canonical optimum when
// Report.Proven, otherwise the best incumbent (at worst the FAST warm
// start). The error is nil on normal completion — including wall-clock
// Budget exhaustion, which is the anytime contract — and non-nil for
// invalid input, an exceeded MaxExpansions cap (ErrBudgetExceeded,
// best-so-far schedule still returned), or context cancellation
// (ctx.Err(), best-so-far schedule still returned). g is compiled,
// which validates it.
func (o *Solver) Solve(g *dag.Graph, procs int) (*sched.Schedule, Report, error) {
	if g.NumNodes() == 0 {
		return nil, Report{}, errEmpty
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, Report{}, err
	}
	return o.SolveCompiled(cg, procs)
}

// SolveCompiled is Solve on a plan. The search state, the equivalence
// classes and the schedule rebuild read the plan's CSR slots in stored
// order, the bounds its static levels and topological order, and the
// FAST warm start runs on the same plan.
func (o *Solver) SolveCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, Report, error) {
	var rep Report
	c := cg.CSR
	v := c.NumNodes()
	if v == 0 {
		return nil, rep, errEmpty
	}
	if procs <= 0 {
		procs = v
		if procs > DefaultProcs {
			procs = DefaultProcs
		}
		rep.ProcsDefaulted = true
	}
	if procs > v {
		procs = v // more processors than tasks never helps
	}
	if procs > maxProcs {
		return nil, rep, fmt.Errorf("optimal: %d processors exceed the solver's cap of %d", procs, maxProcs)
	}
	rep.Procs = procs

	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.Workers = workers

	budget := o.MaxExpansions
	if budget <= 0 {
		budget = DefaultMaxExpansions
	}
	lim := &limiter{max: budget, ctx: o.Context}
	if o.Budget > 0 {
		lim.deadline = time.Now().Add(o.Budget)
	}

	bits := o.TableBits
	if bits == 0 {
		// Scale the table to the plausible state count so tiny oracle
		// calls don't pay a multi-megabyte allocation each.
		switch {
		case v <= 14:
			bits = 15
		case v <= 20:
			bits = 18
		default:
			bits = 21
		}
	}

	prob := &problem{
		c:      c,
		v:      v,
		procs:  procs,
		static: cg.Levels.Static,
		order:  cg.Levels.Order,
		eqPrev: equivalence(c),
		lim:    lim,
		inc:    newIncumbent(),
		table:  newDupTable(bits),
	}

	// Warm start: FAST's schedule seeds the incumbent — any valid
	// schedule works, a good one prunes harder from the first node.
	warm, err := fast.Default().ScheduleCompiled(cg, procs)
	if err != nil {
		return nil, rep, err
	}
	prob.inc.offer(warm.Length(), scheduleAssign(warm, v), scheduleOrder(warm, v))

	root := newSearcher(prob, prob.table)
	rep.LowerBound = root.lowerBound()
	if br := bounds.ComputeCSR(c, cg.Levels, procs); br.Combined > rep.LowerBound {
		// The root relaxation also gets the Fernández interval-capacity
		// bound, which the per-state bound skips for cost; when it meets
		// the warm start the search is over before it begins.
		rep.LowerBound = br.Combined
	}

	var searchErr error
	if rep.LowerBound < prob.inc.load()-eps {
		searchErr = o.runSearch(prob, root, workers, &rep)
	}
	best, assign, seq := prob.inc.snapshot()
	rep.Best = best

	switch {
	case searchErr == nil:
		rep.Proven = true
	case errors.Is(searchErr, errDeadline):
		searchErr = nil // anytime: wall budget spent, best-so-far, no error
	}

	if rep.Proven {
		// Canonical reconstruction: a serial pass, independent of worker
		// count and incumbent history, rebuilds the lexicographically
		// first optimal schedule so the result is bit-identical across
		// GOMAXPROCS settings.
		canonAssign, canonSeq, rerr := o.reconstruct(prob, best, &rep)
		switch {
		case rerr == nil:
			assign, seq = canonAssign, canonSeq
		case errors.Is(rerr, errDeadline):
			// Proven but the clock ran out mid-reconstruction: fall back
			// to the (optimal, but not canonical) incumbent.
		default:
			rep.Proven = false
			searchErr = rerr
		}
	}

	out, err := buildSchedule(c, procs, assign, seq)
	if err != nil {
		return nil, rep, err
	}
	rep.Best = out.Length()
	o.emit(rep)
	return out, rep, searchErr
}

// runSearch expands the root into a frontier and drains it with the
// configured number of workers sharing the incumbent, the expansion
// budget, and the duplicate table.
func (o *Solver) runSearch(prob *problem, root *searcher, workers int, rep *Report) error {
	target := 1
	if workers > 1 {
		target = 16 * workers
	}
	frontier, err := root.expandFrontier(target)
	root.drain(rep)
	if err != nil || len(frontier) == 0 {
		return err
	}
	rep.FrontierTasks = len(frontier)

	goroutines := workers
	if goroutines > len(frontier) {
		goroutines = len(frontier)
	}
	var (
		cursor  atomicCursor
		wg      sync.WaitGroup
		mu      sync.Mutex
		prunErr error
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newSearcher(prob, prob.table)
			defer s.drain(rep)
			defer func() {
				if r := recover(); r != nil {
					err := fmt.Errorf("optimal: search worker panicked: %v", r)
					prob.lim.halt(err)
					mu.Lock()
					if prunErr == nil {
						prunErr = err
					}
					mu.Unlock()
				}
			}()
			for {
				idx := cursor.next()
				if idx >= len(frontier) {
					return
				}
				s.steals++
				s.replay(frontier[idx])
				if err := s.dfs(len(frontier[idx])); err != nil {
					return // limiter tripped; peers will observe it too
				}
			}
		}()
	}
	wg.Wait()
	if prunErr != nil {
		return prunErr
	}
	return prob.lim.halted()
}

// reconstruct runs the deterministic canonical pass: a serial search
// with the proven optimum as a fixed target, branching nodes and
// processors in ascending order and stopping at the first complete
// schedule whose makespan meets it. Because the branching order, the
// dominance rules and the target are all independent of how phase one
// was parallelized, the reconstructed schedule is identical across
// worker counts. It uses a private duplicate table (the shared one
// holds subtrees explored under strict-improvement pruning, which would
// wrongly exclude equally-good schedules here) and is exempt from the
// expansion cap — with a perfect bound the pass is small, but its
// expansions still land in Report.Expansions.
func (o *Solver) reconstruct(prob *problem, target float64, rep *Report) ([]int8, []dag.NodeID, error) {
	sub := &problem{
		c: prob.c, v: prob.v, procs: prob.procs,
		static: prob.static, order: prob.order,
		eqPrev: prob.eqPrev,
		lim:    &limiter{max: math.MaxInt64, ctx: prob.lim.ctx, deadline: prob.lim.deadline},
		inc:    prob.inc,
	}
	s := newSearcher(sub, newDupTable(16))
	s.reconstruct = true
	s.target = target
	err := s.dfs(0)
	s.drain(rep)
	if errors.Is(err, errFound) {
		return s.solAssign, s.solSeq, nil
	}
	if err == nil {
		// Cannot happen with an admissible bound: the optimum is in the
		// tree. Surface loudly rather than return a wrong schedule.
		err = fmt.Errorf("optimal: internal error: canonical pass found no schedule at the proven optimum %v", target)
	}
	return nil, nil, err
}

// emit flushes the report counters to the configured metrics sink.
func (o *Solver) emit(rep Report) {
	m := o.Metrics
	if m == nil {
		return
	}
	m.Counter("optimal.expansions").Add(rep.Expansions)
	m.Counter("optimal.prune.bound").Add(rep.BoundPrunes)
	m.Counter("optimal.prune.duplicate").Add(rep.DuplicatePrunes)
	m.Counter("optimal.prune.dominance").Add(rep.DominanceSkips)
	m.Counter("optimal.frontier.tasks").Add(int64(rep.FrontierTasks))
	m.Counter("optimal.steals").Add(rep.Steals)
	m.Counter("optimal.workers").Add(int64(rep.Workers))
	m.Gauge("optimal.best_makespan").Set(rep.Best)
	m.Gauge("optimal.lower_bound").Set(rep.LowerBound)
}

// scheduleAssign extracts the per-node processor assignment of a
// schedule as the searcher's compact representation.
func scheduleAssign(s *sched.Schedule, v int) []int8 {
	assign := make([]int8, v)
	for i := 0; i < v; i++ {
		assign[i] = int8(s.Proc(dag.NodeID(i)))
	}
	return assign
}

// scheduleOrder lists the nodes of a schedule in global start order
// (ties by node ID) — replaying a ready-time schedule in this order
// reproduces its exact times.
func scheduleOrder(s *sched.Schedule, v int) []dag.NodeID {
	order := make([]dag.NodeID, v)
	for i := range order {
		order[i] = dag.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := s.Start(order[i]), s.Start(order[j])
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	return order
}

// buildSchedule replays a (assignment, sequence) pair into a validated
// schedule: every node starts at max(data arrival, processor ready) in
// sequence order — the semi-active timing the search explored.
func buildSchedule(c *dag.CSR, procs int, assign []int8, seq []dag.NodeID) (*sched.Schedule, error) {
	v := c.NumNodes()
	out := sched.New(v)
	out.Algorithm = "OPT"
	readyAt := make([]float64, procs)
	finish := make([]float64, v)
	for _, n := range seq {
		p := int(assign[n])
		dat := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arr := finish[from]
			if int(assign[from]) != p {
				arr += c.PredW[s]
			}
			if arr > dat {
				dat = arr
			}
		}
		st := math.Max(dat, readyAt[p])
		f := st + c.NodeW[n]
		finish[n] = f
		readyAt[p] = f
		out.Place(n, p, st, f)
	}
	if err := sched.ValidateFlat(c, out); err != nil {
		return nil, fmt.Errorf("optimal: internal error: %w", err)
	}
	return out, nil
}

// equivalence computes, per node, the previous node (or -1) that is
// fully interchangeable with it: identical weight, identical
// predecessor set with identical edge weights, identical successor set
// with identical edge weights. Swapping the placements of two such
// nodes maps any schedule to an equally long schedule, so the search
// only ever branches the lowest-numbered unscheduled member of each
// class (see dfs). Fork-join fan-outs and independent task sets — the
// worst combinatorial offenders — collapse by a factor of k! each.
func equivalence(c *dag.CSR) []int32 {
	v := c.NumNodes()
	eqPrev := make([]int32, v)
	last := make(map[string]int32, v)
	var key []byte
	for i := 0; i < v; i++ {
		key = binary.LittleEndian.AppendUint64(key[:0], math.Float64bits(c.NodeW[i]))
		key = append(key, '|')
		lo, hi := c.PredOff[i], c.PredOff[i+1]
		key = appendSlots(key, c.PredFrom[lo:hi], c.PredW[lo:hi])
		key = append(key, '|')
		lo, hi = c.SuccOff[i], c.SuccOff[i+1]
		key = appendSlots(key, c.SuccTo[lo:hi], c.SuccW[lo:hi])
		k := string(key)
		if prev, ok := last[k]; ok {
			eqPrev[i] = prev
		} else {
			eqPrev[i] = -1
		}
		last[k] = int32(i)
	}
	return eqPrev
}

// appendSlots appends one node's adjacency slots (the node at the other
// end, the communication cost) to b sorted by that node, so the key
// does not depend on slot order.
func appendSlots(b []byte, ends []int32, ws []float64) []byte {
	idx := make([]int, len(ends))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return ends[idx[i]] < ends[idx[j]] })
	for _, i := range idx {
		b = binary.LittleEndian.AppendUint32(b, uint32(ends[i]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ws[i]))
	}
	return b
}
