// Package fast implements FAST — Fast Assignment using Search Technique
// (Kwok, Ahmad, Gu; ICPP 1996) — the paper's contribution: an O(e) DAG
// scheduling algorithm with two phases:
//
//  1. an initial schedule built by list scheduling over the
//     CPN-Dominate list, placing each node at the ready time of the
//     candidate processor that starts it earliest. The paper's
//     candidates are the parents' processors plus one fresh processor;
//     on a bounded machine, once no processor is fresh, this package
//     reads the fresh candidate as every processor, so a node is never
//     confined to its parents' processors;
//  2. a random local search over the blocking-node list (the IBNs and
//     OBNs) that transfers one node at a time to a random processor and
//     keeps the move only when the schedule length strictly improves.
//     This greedy walk is the package's only search: the serial run,
//     every PFAST and multi-start start and the frozen machine of
//     crash repair all run it.
//
// The package also provides the ablation switches called out in
// DESIGN.md (alternative list orders; insertion-based phase 1, which
// prices the same candidates at their earliest idle slot; search off
// with MaxSteps < 0) and PFAST, a parallel variant of phase 2 whose
// starts may also diversify phase 1's list order (multi-start).
package fast

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// ListOrder selects the priority list used by phase 1.
type ListOrder int

const (
	// CPNDominate is the paper's list (default).
	CPNDominate ListOrder = iota
	// BLevelOrder is the classical static list sorted by decreasing
	// b-level; an ablation baseline.
	BLevelOrder
	// StaticLevelOrder sorts by decreasing static level (computation
	// costs only); an ablation baseline.
	StaticLevelOrder
)

func (o ListOrder) String() string {
	switch o {
	case CPNDominate:
		return "cpn-dominate"
	case BLevelOrder:
		return "b-level"
	case StaticLevelOrder:
		return "static-level"
	default:
		return fmt.Sprintf("ListOrder(%d)", int(o))
	}
}

// DefaultMaxSteps is the paper's MAXSTEP constant: "for the results to
// be presented in the next section, the value of MAXSTEP is fixed at 64".
const DefaultMaxSteps = 64

// Options configures a FAST scheduler.
type Options struct {
	// MaxSteps is the number of local-search iterations (MAXSTEP).
	// Zero means DefaultMaxSteps; negative skips phase 2 entirely,
	// returning the initial schedule (the paper's InitialSchedule(),
	// named FAST/initial).
	MaxSteps int
	// Seed seeds the search's random number generator. The same seed
	// always yields the same schedule.
	Seed int64
	// Order selects the phase-1 priority list (default CPNDominate).
	Order ListOrder
	// Insertion makes phase 1 price each of its candidate processors at
	// the earliest idle slot between already-placed tasks that fits the
	// node, instead of at the processor's ready time. The paper
	// deliberately avoids this to stay O(e); it is here as a phase-1
	// ablation and needs MaxSteps < 0, since the search's replay would
	// re-time the placement without gaps.
	Insertion bool
	// Parallelism > 1 enables PFAST: that many independent search
	// goroutines run from the same initial schedule with distinct
	// seeds, and the best final schedule wins. Each searcher still
	// performs MaxSteps steps.
	Parallelism int
	// MultiStart (with Parallelism > 1) additionally diversifies phase
	// 1: start w uses list order w%3 (CPN-Dominate, b-level, static
	// level) and searches its own initial schedule — the structure of
	// the authors' follow-up FASTEST algorithm.
	MultiStart bool
	// Budget, when positive, makes the search anytime: it keeps
	// searching (ignoring MaxSteps) until the wall-clock budget is
	// spent, returning the best schedule found. The serial search
	// honours it, as does every PFAST/multi-start worker (each worker
	// gets the full budget; the workers run concurrently, and share
	// their best makespan to stop each other's hopeless replays). Note
	// that budgeted runs trade the fixed-seed determinism guarantee for
	// the wall-clock bound: the number of steps taken depends on
	// machine speed.
	Budget time.Duration
	// Context, when non-nil, bounds the whole run: the serial search
	// and every PFAST/multi-start worker check it each step. On
	// cancellation or deadline expiry Schedule returns the best schedule
	// found so far together with ctx.Err() — callers that can live with
	// a partial result should keep the schedule when the error is
	// context.Canceled or context.DeadlineExceeded. Find is the
	// convenience wrapper that takes the context as an argument.
	Context context.Context
	// Metrics, when non-nil, receives search telemetry: phase timings,
	// candidate transfers tried/accepted/reverted, incremental replay
	// lengths, the best-makespan trajectory, and PFAST worker stats (see
	// newTelemetry for the metric names). A nil sink disables telemetry
	// at zero cost: the hot loops then touch only nil metric pointers,
	// whose record methods are allocation-free no-ops.
	Metrics obs.Sink
	// Trajectory, when non-nil, records one StepEvent per local-search
	// transfer attempt (node, processors, candidate makespan, accept
	// flag, replay length). Recording is mutex-guarded, so PFAST and
	// multi-start workers may share one trajectory; their events
	// interleave in wall-clock order, tagged with the worker index. The
	// serial search records deterministically for a fixed seed.
	Trajectory *obs.Trajectory
}

// Scheduler implements sched.Scheduler with the FAST algorithm.
type Scheduler struct {
	opts Options
}

// New returns a FAST scheduler with the given options.
func New(opts Options) *Scheduler { return &Scheduler{opts: opts} }

// Instrument attaches a metrics sink and/or a trajectory recorder to an
// already-constructed scheduler — the hook the command-line tools use
// after building a scheduler by name. Either argument may be nil.
func (f *Scheduler) Instrument(sink obs.Sink, traj *obs.Trajectory) {
	f.opts.Metrics = sink
	f.opts.Trajectory = traj
}

// WithBudget returns a copy of the scheduler whose greedy search is
// anytime-bounded by d (see Options.Budget). The batch engine uses this
// to apply a per-request budget to a shared scheduler configuration
// without mutating it under concurrent use; d <= 0 clears the budget.
func (f *Scheduler) WithBudget(d time.Duration) *Scheduler {
	c := *f
	if d < 0 {
		d = 0
	}
	c.opts.Budget = d
	return &c
}

// Default returns a FAST scheduler with the paper's configuration
// (CPN-Dominate list, ready-time placement, MAXSTEP=64, seed 1).
func Default() *Scheduler { return New(Options{Seed: 1}) }

// Name implements sched.Scheduler.
func (f *Scheduler) Name() string {
	switch {
	case f.opts.MaxSteps < 0:
		return "FAST/initial"
	case f.opts.Parallelism > 1:
		return "PFAST"
	default:
		return "FAST"
	}
}

// Schedule implements sched.Scheduler. procs <= 0 is treated as "more
// than enough processors": one per node.
//
// When Options.Context is set and expires mid-search, Schedule returns
// the best schedule found so far *and* the context's error; both are
// non-nil in that case.
func (f *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	ctx := f.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return f.schedule(ctx, g, procs)
}

// Find runs the scheduler under ctx. It is the context-explicit form of
// Schedule: on cancellation or deadline expiry it returns the best
// schedule found so far together with ctx.Err(), so callers can use the
// partial result or discard it as they see fit.
func (f *Scheduler) Find(ctx context.Context, g *dag.Graph, procs int) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return f.schedule(ctx, g, procs)
}

// Find runs the paper's default FAST configuration under ctx; see
// Scheduler.Find for the partial-result contract.
func Find(ctx context.Context, g *dag.Graph, procs int) (*sched.Schedule, error) {
	return Default().Find(ctx, g, procs)
}

func (f *Scheduler) schedule(ctx context.Context, g *dag.Graph, procs int) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return nil, errors.New("fast: empty graph")
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, err
	}
	return f.findCompiled(ctx, cg, procs)
}

// ScheduleCompiled runs the scheduler against a pre-compiled graph —
// the serving path: the batch engine compiles (or fetches from the plan
// cache) once per unique graph, then every request for that graph skips
// the level/classification/list analysis entirely. The result is
// bit-identical to Schedule on the graph the plan was compiled from
// (pinned by the differential tests in internal/batch).
func (f *Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	ctx := f.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return f.findCompiled(ctx, cg, procs)
}

// FindCompiled is ScheduleCompiled under an explicit context; see
// Scheduler.Find for the partial-result contract.
func (f *Scheduler) FindCompiled(ctx context.Context, cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return f.findCompiled(ctx, cg, procs)
}

func (f *Scheduler) findCompiled(ctx context.Context, cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	v := cg.CSR.NumNodes()
	if v == 0 {
		return nil, errors.New("fast: empty graph")
	}
	if procs <= 0 {
		procs = v
	}
	if f.opts.Insertion && f.opts.MaxSteps >= 0 {
		return nil, errors.New("fast: Insertion is a phase-1 ablation and needs MaxSteps < 0")
	}

	maxSteps := f.opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}

	st := acquireState(priorityList(cg, f.opts.Order), cg.CSR, procs, newTelemetry(f.opts.Metrics, f.opts.Trajectory))
	defer st.release()
	var slots []listsched.Timeline
	if f.opts.Insertion {
		slots = make([]listsched.Timeline, procs)
	}
	t0 := time.Now()
	st.initialReadyTime(0, slots)
	f.timer("fast.phase1_ns").ObserveSince(t0)
	f.gauge("fast.initial_makespan").Set(st.length)

	var searchErr error
	if maxSteps > 0 {
		t1 := time.Now()
		if f.opts.Parallelism > 1 {
			searchErr = st.searchParallel(ctx, f.startLists(cg), cg.Blocking, maxSteps, f.opts.Seed, f.opts.Parallelism, f.opts.Budget)
		} else {
			searchErr = st.search(ctx, cg.Blocking, maxSteps, f.opts.Budget, rand.New(rand.NewSource(f.opts.Seed)))
		}
		f.timer("fast.search_ns").ObserveSince(t1)
		if searchErr != nil && !isCancellation(searchErr) {
			return nil, searchErr
		}
	}

	s := st.buildSchedule()
	s.Algorithm = f.Name()
	f.gauge("fast.final_makespan").Set(s.Length())
	return s, searchErr
}

// ScheduleFrozen runs FAST's two phases on a partly committed machine:
// it places moves, a topological order of some of c's nodes, on
// len(ready) processors, processor q free from ready[q]. Every other
// node is frozen: node n stays on processor proc[n], or -1 for one
// that takes no work (its message is then always paid), and finishes
// at finish[n]; its weight in c is unread. A frozen node on processor
// q must finish by ready[q]. Phase 1 runs with every processor in use,
// and the paper's greedy search moves only the nodes in moves. Of the
// scheduler's options, MaxSteps, Seed and Context apply.
//
// The schedule places the moves on processors 0..len(ready)-1 and
// leaves the frozen nodes unassigned. On context expiry it holds the
// best placement found so far, returned with ctx.Err().
func (f *Scheduler) ScheduleFrozen(c *dag.CSR, moves []dag.NodeID, ready []float64, proc []int, finish []float64) (*sched.Schedule, error) {
	v, P := c.NumNodes(), len(ready)
	if len(moves) == 0 || P == 0 || len(proc) != v || len(finish) != v {
		return nil, fmt.Errorf("fast: frozen machine: %d moves, %d processors, %d/%d frozen entries for %d nodes",
			len(moves), P, len(proc), len(finish), v)
	}
	// mark is 1 for a move not yet reached in list order, 2 after.
	mark := make([]uint8, v)
	for _, n := range moves {
		if n < 0 || int(n) >= v || mark[n] != 0 {
			return nil, fmt.Errorf("fast: frozen machine: move %d out of range or repeated", n)
		}
		mark[n] = 1
	}
	for _, n := range moves {
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			if mark[c.PredFrom[s]] == 1 {
				return nil, fmt.Errorf("fast: frozen machine: move %d precedes its parent %d", n, c.PredFrom[s])
			}
		}
		mark[n] = 2
	}
	st := acquireState(moves, c, P, telemetry{})
	defer st.release()
	copy(st.ckReady, ready)
	for n := range v {
		if mark[n] != 0 {
			continue
		}
		if q := proc[n]; q < -1 || q >= P {
			return nil, fmt.Errorf("fast: frozen machine: node %d on processor %d of %d", n, q, P)
		} else if q >= 0 && !(finish[n] <= ready[q]) {
			return nil, fmt.Errorf("fast: frozen machine: node %d finishes at %v on processor %d, free from %v", n, finish[n], q, ready[q])
		}
		st.assign[n], st.finish[n] = proc[n], finish[n]
	}
	st.initialReadyTime(P, nil)
	maxSteps := f.opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	var err error
	if maxSteps > 0 {
		ctx := f.opts.Context
		if ctx == nil {
			ctx = context.Background()
		}
		err = st.search(ctx, moves, maxSteps, 0, rand.New(rand.NewSource(f.opts.Seed)))
	}
	s := sched.New(v)
	s.Algorithm = f.Name()
	for _, n := range moves {
		s.Place(n, st.assign[n], st.start[n], st.finish[n])
	}
	return s, err
}

// timer resolves a named timer from the configured sink (nil when
// telemetry is disabled; all its methods then no-op).
func (f *Scheduler) timer(name string) *obs.Timer {
	if f.opts.Metrics == nil {
		return nil
	}
	return f.opts.Metrics.Timer(name)
}

// gauge resolves a named gauge from the configured sink.
func (f *Scheduler) gauge(name string) *obs.Gauge {
	if f.opts.Metrics == nil {
		return nil
	}
	return f.opts.Metrics.Gauge(name)
}

// startLists gives each multi-start start its list: start w uses list
// order w%3, nil where that is the configured order, whose phase 1 the
// base state already holds. PFAST's starts all share the base, so it
// gets none.
func (f *Scheduler) startLists(cg *plan.CompiledGraph) [][]dag.NodeID {
	if !f.opts.MultiStart {
		return nil
	}
	var byOrder [3][]dag.NodeID
	lists := make([][]dag.NodeID, f.opts.Parallelism)
	for w := range lists {
		o := ListOrder(w % 3)
		if o == f.opts.Order {
			continue
		}
		if byOrder[o] == nil {
			byOrder[o] = priorityList(cg, o)
		}
		lists[w] = byOrder[o]
	}
	return lists
}

// priorityList builds the phase-1 list for order from the compiled
// artifacts. The default order is the compiled CPN-Dominate list
// itself, shared read-only — phase 1 never mutates its list.
func priorityList(cg *plan.CompiledGraph, order ListOrder) []dag.NodeID {
	l := cg.Levels
	switch order {
	case BLevelOrder:
		return l.PriorityOrder(l.BLevel)
	case StaticLevelOrder:
		return l.PriorityOrder(l.Static)
	default:
		return cg.CPNDominate
	}
}
