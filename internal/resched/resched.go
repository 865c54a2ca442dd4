// Package resched repairs a schedule after a processor crash: it
// freezes the executed prefix reported by the simulator's *CrashError,
// extracts the unexecuted suffix of the DAG, re-runs FAST's two phases
// (CPN-Dominate initial placement plus a budgeted local search) over the
// surviving processors through internal/fast's frozen machine, and
// splices the repaired suffix back onto the frozen prefix.
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
	"sort"

	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

// DefaultMaxSteps is the local-search budget of the repair: the paper's
// MAXSTEP constant, because the suffix search is FAST's own phase 2.
const DefaultMaxSteps = fast.DefaultMaxSteps

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
	// Metrics, when non-nil, receives repair telemetry: PlanSuffix
	// counts each plan it returns (resched.repairs) with its suffix size
	// and surviving-processor count, and Repair adds the crashes it
	// observed and the repaired makespan.
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
// survivor's floor. It runs FAST's two phases over the suffix subgraph
// on internal/fast's frozen machine: the CPN-Dominate initial placement
// with every survivor in use, then the budgeted greedy random walk over
// the whole suffix. The executed prefix parents are frozen nodes, so a
// boundary message from one arrives at pre.Finish[parent], plus the
// edge's communication cost when the consumer runs on a different
// processor than pre.Proc[parent] — a dead processor's results are
// assumed checkpointed, so they remain fetchable at that cost. A prefix
// parent on a survivor must finish by that survivor's floor.
//
// On context expiry the best plan found so far is returned together
// with ctx.Err(); both are non-nil in that case. This is the planner
// the online multi-DAG engine calls once per affected job after a
// crash, with the shared-timeline frontiers as floors.
func PlanSuffix(g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64, opts Options) (*SuffixPlan, error) {
	v := g.NumNodes()
	if len(pre.Done) != v {
		return nil, fmt.Errorf("resched: prefix sized for %d nodes, graph has %d", len(pre.Done), v)
	}
	if len(survivors) == 0 {
		return nil, errors.New("resched: no surviving processors")
	}
	// The suffix takes IDs 0..k-1 in ascending original order.
	id := make([]int32, v)
	var orig []dag.NodeID
	for i := range v {
		id[i] = -1
		if !pre.Done[i] {
			id[i] = int32(len(orig))
			orig = append(orig, dag.NodeID(i))
		}
	}
	k := int32(len(orig))
	if k == 0 {
		return nil, errors.New("resched: crash report shows no unexecuted tasks")
	}
	slot := make(map[int]int, len(survivors))
	ready := make([]float64, len(survivors))
	for q, p := range survivors {
		slot[p], ready[q] = q, floor[p]
	}
	// One CSR holds the suffix and, from ID k up, the prefix parents it
	// reads, frozen where they ran, with no work left to do; its edges
	// keep g's predecessor order. The suffix's own edges also form the
	// suffix graph.
	nodeW := make([]float64, k)
	proc, finish := make([]int, k), make([]float64, k)
	var from, to, subFrom, subTo []int32
	var w, subW []float64
	for j, n := range orig {
		nodeW[j] = g.Weight(n)
		for _, e := range g.Pred(n) {
			p := id[e.From]
			switch {
			case p < 0:
				p, id[e.From] = int32(len(nodeW)), int32(len(nodeW))
				q, ok := slot[pre.Proc[e.From]]
				if !ok {
					q = -1
				}
				nodeW, proc, finish = append(nodeW, 0), append(proc, q), append(finish, pre.Finish[e.From])
			case p < k:
				subFrom, subTo, subW = append(subFrom, p), append(subTo, int32(j)), append(subW, e.Weight)
			}
			from, to, w = append(from, p), append(to, int32(j)), append(w, e.Weight)
		}
	}
	sub, err := dag.FinishCSR(nodeW[:k:k], subFrom, subTo, subW, 0)
	if err != nil {
		return nil, fmt.Errorf("resched: suffix extraction: %w", err)
	}
	cg, err := plan.CompileCompact(sub, nil)
	if err != nil {
		return nil, fmt.Errorf("resched: suffix plan: %w", err)
	}
	c, err := dag.FinishCSR(nodeW, from, to, w, 0)
	if err != nil {
		return nil, fmt.Errorf("resched: suffix extraction: %w", err)
	}
	f := fast.New(fast.Options{MaxSteps: opts.MaxSteps, Seed: opts.Seed, Context: opts.Context})
	s, err := f.ScheduleFrozen(c, cg.CPNDominate, ready, proc, finish)
	if s == nil {
		return nil, fmt.Errorf("resched: %w", err)
	}
	sp := &SuffixPlan{
		Nodes:    orig,
		Proc:     make([]int, k),
		Start:    make([]float64, k),
		Finish:   make([]float64, k),
		Makespan: s.Length(),
	}
	for j := range orig {
		pl := s.Of(dag.NodeID(j))
		sp.Proc[j], sp.Start[j], sp.Finish[j] = survivors[pl.Proc], pl.Start, pl.Finish
	}
	if m := opts.Metrics; m != nil {
		m.Counter("resched.repairs").Inc()
		m.Histogram("resched.suffix_len", obs.ExpBuckets(1, 2, 16)).Observe(float64(k))
		m.Histogram("resched.survivors", obs.LinearBuckets(1, 1, 32)).Observe(float64(len(survivors)))
	}
	return sp, err
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

	pre, survivors, floor := crashInputs(s, crash)
	if len(survivors) == 0 {
		return nil, errors.New("resched: no surviving processors")
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
		m.Counter("resched.crashes_observed").Add(int64(len(crash.Crashes)))
		m.Gauge("resched.repaired_makespan").Set(res.Makespan)
	}
	return res, ctxErr
}

// crashInputs derives PlanSuffix's inputs from a crash report: the
// executed prefix where it ran, and the survivors — the schedule's
// processors minus the dead set — with their splice frontiers floored
// at the last crash (the replan instant).
func crashInputs(s *sched.Schedule, crash *sim.CrashError) (Prefix, []int, map[int]float64) {
	lastCrash := 0.0
	for _, c := range crash.Crashes {
		lastCrash = max(lastCrash, c.Time)
	}
	var survivors []int
	floor := make(map[int]float64)
	for _, p := range s.Procs() {
		if !crash.Dead[p] {
			survivors = append(survivors, p)
			floor[p] = max(crash.ProcFree[p], lastCrash)
		}
	}
	pre := Prefix{Done: crash.Done, Finish: crash.Finish, Proc: make([]int, len(crash.Done))}
	for i, done := range crash.Done {
		if done {
			pre.Proc[i] = s.Proc(dag.NodeID(i))
		}
	}
	return pre, survivors, floor
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
