// Package resched repairs a schedule after a processor crash: it
// freezes the executed prefix reported by the simulator's *CrashError,
// extracts the unexecuted suffix of the DAG, re-runs FAST's two phases
// (CPN-Dominate initial placement plus a budgeted local search) over the
// surviving processors, and splices the repaired suffix back onto the
// frozen prefix.
//
// The fault model behind the splice: results of completed tasks survive
// their processor's crash (they are checkpointed off-node the moment the
// task finishes), so a replanned successor can fetch a dead processor's
// output by paying the edge's communication cost once more. Aborted
// tasks lost their partial work and re-run from scratch in the suffix.
package resched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

// DefaultMaxSteps is the local-search budget of the repair: the paper's
// MAXSTEP constant, reused because the suffix search is the same greedy
// random walk FAST runs in phase 2.
const DefaultMaxSteps = 64

// Options configures a repair.
type Options struct {
	// MaxSteps bounds the greedy local search over the suffix
	// placement. Zero means DefaultMaxSteps; negative disables the
	// search (initial placement only).
	MaxSteps int
	// Seed drives the search's random moves.
	Seed int64
	// Context, when non-nil, bounds the repair: the search stops at the
	// first cancelled step and Repair returns the best plan found so far
	// together with ctx.Err().
	Context context.Context
	// Metrics, when non-nil, receives repair telemetry: repairs run,
	// suffix sizes, surviving-processor counts, and repaired makespans.
	Metrics obs.Sink
}

// Result is a repaired execution: the spliced schedule, the per-task
// durations it must be validated against, and the bookkeeping a caller
// needs to report on the recovery.
type Result struct {
	// Schedule holds the executed prefix at its realized (simulated)
	// times and the replanned suffix at its planned times.
	Schedule *sched.Schedule
	// Durations are the per-task durations matching Schedule's slots:
	// realized durations for the prefix (jitter and perturbation
	// included), nominal node weights for the suffix. Pass to
	// sched.ValidateDurations.
	Durations []float64
	// Suffix lists the replanned tasks (original node IDs) in their
	// planned start order.
	Suffix []dag.NodeID
	// Survivors are the processors the suffix was replanned onto.
	Survivors []int
	// Makespan is the finish time of the spliced schedule.
	Makespan float64
	// Report summarizes the repaired execution in the simulator's
	// format: prefix message/retry counts carry over, busy time combines
	// prefix (realized) and suffix (planned) work.
	Report *sim.Report
}

// Prefix describes the executed part of a DAG at the instant a replan
// is requested: which tasks have completed (or are guaranteed to
// complete — an in-flight task on a surviving processor counts), when
// each of them finishes, and where it ran. Finish and Proc are read
// only at indices where Done is true.
type Prefix struct {
	Done   []bool
	Finish []float64
	Proc   []int
}

// SuffixPlan is the replanned placement of a DAG's unexecuted suffix:
// parallel arrays over Nodes (the suffix tasks in ascending original
// node ID), plus the makespan of the suffix placement.
type SuffixPlan struct {
	Nodes    []dag.NodeID
	Proc     []int
	Start    []float64
	Finish   []float64
	Makespan float64
}

// PlanSuffix replans the unexecuted suffix of g — every task pre.Done
// does not cover — onto the surviving processors, no earlier than each
// survivor's floor. It runs FAST's two phases over the suffix subgraph:
// the CPN-Dominate initial placement, then the budgeted greedy random
// walk. Boundary messages from prefix parents arrive at
// pre.Finish[parent], plus the edge's communication cost when the
// consumer runs on a different processor than pre.Proc[parent] — a dead
// processor's results are assumed checkpointed, so they remain
// fetchable at that cost.
//
// On context expiry the best plan found so far is returned together
// with ctx.Err(); both are non-nil in that case. This is the planner
// the online multi-DAG engine calls once per affected job after a
// crash, with the shared-timeline frontiers as floors.
func PlanSuffix(g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64, opts Options) (*SuffixPlan, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	v := g.NumNodes()
	if len(pre.Done) != v {
		return nil, fmt.Errorf("resched: prefix sized for %d nodes, graph has %d", len(pre.Done), v)
	}
	if len(survivors) == 0 {
		return nil, errors.New("resched: no surviving processors")
	}
	pl, err := newPlanner(g, pre, survivors, floor)
	if err != nil {
		return nil, err
	}
	if len(pl.orig) == 0 {
		return nil, errors.New("resched: crash report shows no unexecuted tasks")
	}
	if err := pl.priorityOrder(); err != nil {
		return nil, err
	}

	// Phase 1: FAST's initial placement over the suffix subgraph —
	// CPN-Dominate list order, each node placed on the surviving
	// processor that finishes it earliest given the boundary arrivals.
	pl.initialPlacement()

	// Phase 2: FAST's greedy random walk, budgeted at MaxSteps, moving
	// one suffix task to a random survivor and keeping strict
	// improvements only.
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	var ctxErr error
	if maxSteps > 0 && len(survivors) > 1 {
		ctxErr = pl.search(ctx, maxSteps, rand.New(rand.NewSource(opts.Seed)))
	}

	plan := &SuffixPlan{
		Nodes:  append([]dag.NodeID(nil), pl.orig...),
		Proc:   append([]int(nil), pl.assign...),
		Start:  append([]float64(nil), pl.start...),
		Finish: append([]float64(nil), pl.finish...),
	}
	for _, f := range plan.Finish {
		if f > plan.Makespan {
			plan.Makespan = f
		}
	}
	return plan, ctxErr
}

// Repair replans the unexecuted suffix of a crashed run onto the
// surviving processors. The spliced schedule is validated against the
// realized prefix durations before it is returned; a validation failure
// is a bug in the planner and surfaces as an error.
//
// On context expiry the best plan found so far is returned together
// with ctx.Err(); both are non-nil in that case.
func Repair(g *dag.Graph, s *sched.Schedule, crash *sim.CrashError, opts Options) (*Result, error) {
	if crash == nil {
		return nil, errors.New("resched: nil crash report")
	}
	v := g.NumNodes()
	if len(crash.Done) != v {
		return nil, fmt.Errorf("resched: crash report sized for %d nodes, graph has %d", len(crash.Done), v)
	}

	// Survivors: the schedule's processors minus the dead set, with their
	// splice frontiers floored at the last crash (the replan instant).
	lastCrash := 0.0
	for _, c := range crash.Crashes {
		if c.Time > lastCrash {
			lastCrash = c.Time
		}
	}
	var survivors []int
	for _, p := range s.Procs() {
		if !crash.Dead[p] {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		return nil, errors.New("resched: no surviving processors")
	}
	floor := make(map[int]float64, len(survivors))
	for _, p := range survivors {
		floor[p] = maxf(crash.ProcFree[p], lastCrash)
	}

	pre := Prefix{Done: crash.Done, Finish: crash.Finish, Proc: make([]int, v)}
	for i := 0; i < v; i++ {
		if crash.Done[i] {
			pre.Proc[i] = s.Proc(dag.NodeID(i))
		}
	}
	plan, ctxErr := PlanSuffix(g, pre, survivors, floor, opts)
	if plan == nil {
		return nil, ctxErr
	}

	res, err := splice(g, s, crash, plan)
	if err != nil {
		return nil, err
	}
	res.Survivors = survivors
	if m := opts.Metrics; m != nil {
		m.Counter("resched.repairs").Inc()
		m.Counter("resched.crashes_observed").Add(int64(len(crash.Crashes)))
		m.Histogram("resched.suffix_len", obs.ExpBuckets(1, 2, 16)).Observe(float64(len(res.Suffix)))
		m.Histogram("resched.survivors", obs.LinearBuckets(1, 1, 32)).Observe(float64(len(survivors)))
		m.Gauge("resched.repaired_makespan").Set(res.Makespan)
	}
	return res, ctxErr
}

// boundaryEdge is a message from an executed prefix parent into the
// suffix: the parent finished at finish on processor proc, and fetching
// its result from any other processor costs comm.
type boundaryEdge struct {
	proc   int
	finish float64
	comm   float64
}

// planner holds the suffix subgraph and the placement state of the
// repair search.
type planner struct {
	sub      *dag.Graph
	orig     []dag.NodeID // sub ID -> original ID
	subOf    []int        // original ID -> sub ID, -1 for prefix tasks
	list     []int        // phase-1 priority order (sub IDs, topological)
	boundary [][]boundaryEdge
	procs    []int
	floor    map[int]float64

	assign []int // sub ID -> processor
	start  []float64
	finish []float64
	length float64

	procReady map[int]float64 // scratch for evaluate
}

// newPlanner extracts the unexecuted suffix of g as its own graph (IDs
// remapped densely) and records the boundary arrivals from the executed
// prefix.
func newPlanner(g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64) (*planner, error) {
	v := g.NumNodes()
	subOf := make([]int, v)
	var orig []dag.NodeID
	for i := 0; i < v; i++ {
		if pre.Done[i] {
			subOf[i] = -1
		} else {
			subOf[i] = len(orig)
			orig = append(orig, dag.NodeID(i))
		}
	}
	sub := dag.New(len(orig))
	for _, n := range orig {
		sub.AddNode(g.Label(n), g.Weight(n))
	}
	boundary := make([][]boundaryEdge, len(orig))
	for _, n := range orig {
		j := subOf[n]
		for _, e := range g.Pred(n) {
			if pj := subOf[e.From]; pj >= 0 {
				if err := sub.AddEdge(dag.NodeID(pj), dag.NodeID(j), e.Weight); err != nil {
					return nil, fmt.Errorf("resched: suffix extraction: %w", err)
				}
			} else {
				boundary[j] = append(boundary[j], boundaryEdge{
					proc:   pre.Proc[e.From],
					finish: pre.Finish[e.From],
					comm:   e.Weight,
				})
			}
		}
	}
	pl := &planner{
		sub:       sub,
		orig:      orig,
		subOf:     subOf,
		boundary:  boundary,
		procs:     survivors,
		floor:     floor,
		assign:    make([]int, len(orig)),
		start:     make([]float64, len(orig)),
		finish:    make([]float64, len(orig)),
		procReady: make(map[int]float64, len(survivors)),
	}
	return pl, nil
}

// priorityOrder builds FAST's phase-1 list over the suffix subgraph.
func (pl *planner) priorityOrder() error {
	cg, err := plan.Compile(pl.sub)
	if err != nil {
		return fmt.Errorf("resched: suffix plan: %w", err)
	}
	pl.list = make([]int, len(cg.CPNDominate))
	for i, n := range cg.CPNDominate {
		pl.list[i] = int(n)
	}
	return nil
}

// arrivalOn returns the earliest time sub node j's external inputs are
// available on processor p, given the current suffix placement for
// already-planned suffix parents.
func (pl *planner) arrivalOn(j, p int, planned []bool) float64 {
	t := 0.0
	for _, b := range pl.boundary[j] {
		a := b.finish
		if b.proc != p {
			a += b.comm
		}
		if a > t {
			t = a
		}
	}
	for _, e := range pl.sub.Pred(dag.NodeID(j)) {
		pj := int(e.From)
		if planned != nil && !planned[pj] {
			continue
		}
		a := pl.finish[pj]
		if pl.assign[pj] != p {
			a += e.Weight
		}
		if a > t {
			t = a
		}
	}
	return t
}

// initialPlacement is FAST's ready-time placement restricted to the
// survivors: each list node goes to the processor that finishes it
// earliest (ties to the lower processor ID).
func (pl *planner) initialPlacement() {
	ready := pl.procReady
	for _, p := range pl.procs {
		ready[p] = pl.floor[p]
	}
	planned := make([]bool, len(pl.orig))
	for _, j := range pl.list {
		bestP, bestStart, bestFinish := -1, 0.0, 0.0
		w := pl.sub.Weight(dag.NodeID(j))
		for _, p := range pl.procs {
			st := maxf(ready[p], pl.arrivalOn(j, p, planned))
			fin := st + w
			if bestP < 0 || fin < bestFinish-1e-12 {
				bestP, bestStart, bestFinish = p, st, fin
			}
		}
		pl.assign[j] = bestP
		pl.start[j] = bestStart
		pl.finish[j] = bestFinish
		ready[bestP] = bestFinish
		planned[j] = true
	}
	pl.length = pl.evaluate()
}

// evaluate replays the suffix under the current assignment: nodes run in
// list order on their processors (the list is a topological order of the
// subgraph), starting no earlier than the processor's frontier and every
// input's arrival. It fills start/finish and returns the makespan of the
// suffix.
func (pl *planner) evaluate() float64 {
	ready := pl.procReady
	for _, p := range pl.procs {
		ready[p] = pl.floor[p]
	}
	length := 0.0
	for _, j := range pl.list {
		p := pl.assign[j]
		st := maxf(ready[p], pl.arrivalOn(j, p, nil))
		// arrivalOn with nil planned reads every suffix parent; parents
		// precede j in the topological list, so their times are current.
		fin := st + pl.sub.Weight(dag.NodeID(j))
		pl.start[j] = st
		pl.finish[j] = fin
		ready[p] = fin
		if fin > length {
			length = fin
		}
	}
	return length
}

// search is the budgeted greedy random walk of FAST's phase 2, applied
// to the suffix: move one random task to a random surviving processor,
// keep the move only when the replayed makespan strictly improves. On
// context expiry it stops and returns ctx.Err() with the best placement
// still committed.
func (pl *planner) search(ctx context.Context, maxSteps int, rng *rand.Rand) error {
	for step := 0; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := pl.list[rng.Intn(len(pl.list))]
		p := pl.procs[rng.Intn(len(pl.procs))]
		if p == pl.assign[j] {
			continue
		}
		old := pl.assign[j]
		pl.assign[j] = p
		if l := pl.evaluate(); l < pl.length-1e-12 {
			pl.length = l
		} else {
			pl.assign[j] = old
			pl.length = pl.evaluate()
		}
	}
	return nil
}

// splice builds the repaired full schedule: prefix tasks at their
// realized times, suffix tasks at their planned times, validated
// against the realized prefix durations.
func splice(g *dag.Graph, s *sched.Schedule, crash *sim.CrashError, plan *SuffixPlan) (*Result, error) {
	v := g.NumNodes()
	subOf := make([]int, v)
	for i := range subOf {
		subOf[i] = -1
	}
	for j, n := range plan.Nodes {
		subOf[n] = j
	}
	out := sched.New(v)
	out.Algorithm = s.Algorithm + "+resched"
	dur := make([]float64, v)
	finishAll := make([]float64, v)
	for i := 0; i < v; i++ {
		n := dag.NodeID(i)
		if j := subOf[i]; j >= 0 {
			out.Place(n, plan.Proc[j], plan.Start[j], plan.Finish[j])
			dur[i] = g.Weight(n)
			finishAll[i] = plan.Finish[j]
		} else {
			out.Place(n, s.Proc(n), crash.Start[i], crash.Finish[i])
			dur[i] = crash.Finish[i] - crash.Start[i]
			finishAll[i] = crash.Finish[i]
		}
	}
	if err := sched.ValidateDurations(g, out, dur); err != nil {
		return nil, fmt.Errorf("resched: spliced schedule invalid: %w", err)
	}

	suffix := append([]dag.NodeID(nil), plan.Nodes...)
	sort.Slice(suffix, func(a, b int) bool {
		sa, sb := plan.Start[subOf[suffix[a]]], plan.Start[subOf[suffix[b]]]
		if sa != sb {
			return sa < sb
		}
		return suffix[a] < suffix[b]
	})

	makespan := 0.0
	for _, f := range finishAll {
		if f > makespan {
			makespan = f
		}
	}
	busy := make(map[int]float64, len(crash.BusyTime))
	for p, b := range crash.BusyTime {
		busy[p] = b
	}
	for j, n := range plan.Nodes {
		busy[plan.Proc[j]] += g.Weight(n)
	}
	return &Result{
		Schedule:  out,
		Durations: dur,
		Suffix:    suffix,
		Makespan:  makespan,
		Report: &sim.Report{
			Time: makespan, Finish: finishAll, BusyTime: busy,
			Messages: crash.Messages, Retries: crash.Retries,
		},
	}, nil
}

// Execute runs the schedule under cfg and repairs it when a crash
// prevents completion. Without a crash it returns the simulator's
// report and a nil Result; with one, the repaired report and the full
// Result. Non-crash simulation errors pass through unchanged.
func Execute(g *dag.Graph, s *sched.Schedule, cfg sim.Config, opts Options) (*sim.Report, *Result, error) {
	rep, err := sim.Run(g, s, cfg)
	if err == nil {
		return rep, nil, nil
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		return nil, nil, err
	}
	res, rerr := Repair(g, s, ce, opts)
	if res == nil {
		return nil, nil, rerr
	}
	return res.Report, res, rerr
}

// ExecuteTraced is Execute with event recording: on a crash the
// returned tracer holds the executed prefix's events followed by the
// replan marker ("resched") and the repaired suffix's planned
// "rstart"/"rfinish" events, ready for WriteChromeTrace.
func ExecuteTraced(g *dag.Graph, s *sched.Schedule, cfg sim.Config, opts Options) (*sim.Report, *Result, *sim.Tracer, error) {
	rep, tr, err := sim.RunTraced(g, s, cfg)
	if err == nil {
		return rep, nil, tr, nil
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		return nil, nil, nil, err
	}
	res, rerr := Repair(g, s, ce, opts)
	if res == nil {
		return nil, nil, nil, rerr
	}
	lastCrash := ce.Crashes[len(ce.Crashes)-1]
	tr.Record(sim.TraceEvent{Time: lastCrash.Time, Kind: "resched", Proc: lastCrash.Proc})
	for _, n := range res.Suffix {
		p := res.Schedule.Of(n)
		tr.Record(sim.TraceEvent{Time: p.Start, Kind: "rstart", Node: n, Proc: p.Proc})
		tr.Record(sim.TraceEvent{Time: p.Finish, Kind: "rfinish", Node: n, Proc: p.Proc})
	}
	return res.Report, res, tr, rerr
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
