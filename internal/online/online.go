// Package online is the multi-DAG workload engine: a stream of jobs —
// each a task graph with an arrival time, an optional absolute
// deadline, a tenant and a weight — competes for one shared machine of
// P processors over simulated time. It turns the repository from
// "schedule one graph" into a serving system under multi-tenant
// traffic, with deadline misses, tardiness, response time and
// per-tenant fairness as first-class metrics.
//
// The engine is an event-driven simulator driving three layers that
// already exist:
//
//   - the compiled-plan path (internal/plan): every job's graph is
//     compiled once at admission, and the per-task priorities of all
//     packing policies come from the compiled artifacts (FAST's
//     CPN-Dominate rank, the b-levels);
//   - whole-DAG delegation: a job arriving to an idle, crash-free
//     machine is scheduled in one piece by a registry algorithm
//     (Options.Algorithm) exactly as the offline batch path would
//     schedule it, shifted to its arrival instant — so a lone DAG at
//     t = 0 reproduces the offline makespan bit-for-bit;
//   - crash repair (internal/resched): a processor crash from the
//     FaultPlan tears down every placement the dead processor
//     invalidates, and each affected job's unexecuted suffix is
//     replanned by resched.PlanSuffix onto the survivors — in policy
//     order, each repair spliced back into the shared timeline before
//     the next job replans.
//
// Determinism: Run is single-threaded and every iteration order is
// fixed (sorted slices and heaps under strict total orders, no map
// ranges), so a fixed seed reproduces the JSONL trace bit-for-bit
// across runs and GOMAXPROCS settings. The
// only fault supported is the FaultPlan's processor crash; plans that
// enable message loss, delay or jitter are rejected with
// ErrFaultUnsupported, keeping the realized times exact.
package online

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/pq"
	"fastsched/internal/resched"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

// Typed errors. Every submission-validation failure is one of these
// (possibly wrapped with detail), so callers and the fuzz harness can
// classify rejections with errors.Is.
var (
	// ErrBadProcs marks a machine without at least one processor.
	ErrBadProcs = errors.New("online: need at least one processor")
	// ErrBadPolicy marks an unknown packing policy name.
	ErrBadPolicy = errors.New("online: unknown policy")
	// ErrBadAlgorithm marks a delegate algorithm the registry rejects.
	ErrBadAlgorithm = errors.New("online: unknown algorithm")
	// ErrNilGraph marks a job without a graph.
	ErrNilGraph = errors.New("online: nil graph")
	// ErrEmptyGraph marks a zero-width job: a graph with no nodes.
	ErrEmptyGraph = errors.New("online: empty graph")
	// ErrBadGraph marks a graph that fails structural validation.
	ErrBadGraph = errors.New("online: invalid graph")
	// ErrBadJobID marks a job with an empty ID.
	ErrBadJobID = errors.New("online: empty job ID")
	// ErrDuplicateID marks two jobs sharing an ID.
	ErrDuplicateID = errors.New("online: duplicate job ID")
	// ErrBadArrival marks a negative or non-finite arrival time.
	ErrBadArrival = errors.New("online: bad arrival time")
	// ErrBadDeadline marks a negative or non-finite deadline, or a
	// deadline at or before the job's own arrival.
	ErrBadDeadline = errors.New("online: bad deadline")
	// ErrBadWeight marks a negative or non-finite job weight.
	ErrBadWeight = errors.New("online: bad job weight")
	// ErrFaultUnsupported marks a fault plan using faults the online
	// machine model does not simulate (message loss/delay, jitter).
	ErrFaultUnsupported = errors.New("online: fault plan enables faults the online engine does not support (only crashes)")
	// ErrAllProcessorsDead reports that crashes killed the whole
	// machine with jobs still unfinished. The Report is still returned:
	// finished jobs carry their outcomes, unfinished ones are marked
	// uncompleted.
	ErrAllProcessorsDead = errors.New("online: all processors crashed with jobs unfinished")
)

// DefaultAlgorithm is the whole-DAG delegate used when
// Options.Algorithm is empty.
const DefaultAlgorithm = "fast"

// Job is one unit of arriving work.
type Job struct {
	// ID names the job in traces; must be non-empty and unique.
	ID string
	// Tenant groups jobs for the fairness accounting; empty is the
	// anonymous tenant "".
	Tenant string
	// Weight is the job's share weight within its tenant (0 selects 1).
	Weight float64
	// Graph is the task graph; treated as read-only by the engine.
	Graph *dag.Graph
	// Arrival is the simulated time the job becomes known (>= 0).
	Arrival float64
	// Deadline is the absolute completion deadline; 0 means none. A
	// positive deadline must lie strictly after Arrival.
	Deadline float64
}

// Options configures one engine run.
type Options struct {
	// Procs is the shared machine size (>= 1).
	Procs int
	// Policy orders ready tasks across live jobs: "fifo" (arrival
	// order), "edf" (earliest deadline first) or "fast" (least laxity:
	// deadline minus the task's compiled b-level). Empty selects "edf".
	Policy string
	// Algorithm is the registry scheduler a job is delegated to when it
	// arrives to an idle, crash-free machine (the solo fast path).
	// Empty selects DefaultAlgorithm; "none" disables delegation.
	Algorithm string
	// Seed drives the delegate's local search and the crash repairs.
	Seed int64
	// ReplanSteps bounds the repair search per affected job (see
	// resched.Options.MaxSteps; 0 selects the resched default).
	ReplanSteps int
	// Faults injects processor crashes over simulated time. Only
	// Crashes may be set; other fault kinds are rejected.
	Faults *sim.FaultPlan
	// Metrics, when non-nil, receives engine telemetry under the
	// online.* namespace.
	Metrics obs.Sink
}

const eps = 1e-9

// taskStatus tracks one task through the shared timeline.
type taskStatus int8

const (
	taskUnscheduled taskStatus = iota // not placed (waiting or torn down)
	taskCommitted                     // owns a [start,finish) reservation
	taskDone                          // finished; results checkpointed
)

// jobState is the engine's view of one job.
type jobState struct {
	job  Job
	seq  int
	cg   *plan.CompiledGraph
	rank []int32 // node -> position in the compiled CPN-Dominate list

	pending    []int32 // unfinished-parent counts
	status     []taskStatus
	proc       []int32
	start      []float64
	finish     []float64
	cseq       []int32 // commitment generation, invalidates stale events
	unfinished int

	arrived   bool
	done      bool
	solo      bool
	replans   int
	aborted   int
	maxFinish float64
}

func (js *jobState) deadlineOrInf() float64 {
	if js.job.Deadline > 0 {
		return js.job.Deadline
	}
	return math.Inf(1)
}

// taskRef addresses one task of one job.
type taskRef struct {
	job  int
	node int
}

// event kinds, in tie-break order at equal times: finishes release
// work and count as completed before a crash at the same instant;
// arrivals see the post-crash machine.
const (
	evFinish int8 = iota
	evCrash
	evArrival
)

type event struct {
	time float64
	kind int8
	job  int   // finish/arrival owner; -1 for crashes
	node int   // finish only
	cseq int32 // finish only: commitment generation
	idx  int   // crash ordinal
}

// eventLess is the event queue's strict total order. Only two finish
// events of one task can tie up to idx; their cseq tells them apart.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.job != b.job {
		return a.job < b.job
	}
	if a.node != b.node {
		return a.node < b.node
	}
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.cseq < b.cseq
}

// commitRef is one per-processor timeline entry. Entries are lazily
// invalidated: an entry speaks for its task only while the task still
// holds the same commitment generation on the same processor.
type commitRef struct {
	job  int
	node int
	cseq int32
}

type engine struct {
	opts   Options
	policy policyKind
	jobs   []*jobState

	dead     []bool
	frontier []float64
	onProc   [][]commitRef

	ready  pq.Heap[taskRef] // in policy order (less)
	events pq.Heap[event]   // in eventLess order
	// toArrive lists the jobs still to arrive, by arrival time then
	// submission order. Only the next one waits in events: every later
	// arrival orders after it, so the pop sequence is the same as with
	// all of them queued, and the heap stays as small as the work in
	// flight.
	toArrive []int

	live     int // arrived, unfinished jobs
	anyCrash bool
	crashes  int
	replans  int
	aborted  int

	mArrived    *obs.Counter
	mCompleted  *obs.Counter
	mMissed     *obs.Counter
	mDispatched *obs.Counter
	mAborted    *obs.Counter
	mCrashes    *obs.Counter
	mReplans    *obs.Counter
	mSoloPlans  *obs.Counter
	mResponse   *obs.Histogram
	mTardiness  *obs.Histogram
	mFairness   *obs.Gauge
	mMakespan   *obs.Gauge
}

// valid reports whether a timeline entry still speaks for its task.
func (e *engine) valid(p int, r commitRef) bool {
	js := e.jobs[r.job]
	return js.status[r.node] != taskUnscheduled && int(js.proc[r.node]) == p && js.cseq[r.node] == r.cseq
}

// Run drives the whole workload to quiescence and reports per-job
// outcomes in submission order. Validation failures surface before any
// simulated time passes; the only runtime failure is
// ErrAllProcessorsDead, which still carries the partial Report.
func Run(jobs []Job, opts Options) (*Report, error) {
	e, err := newEngine(jobs, opts)
	if err != nil {
		return nil, err
	}
	e.loop()
	return e.finalize()
}

func newEngine(jobs []Job, opts Options) (*engine, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadProcs, opts.Procs)
	}
	policy, err := parsePolicy(opts.Policy)
	if err != nil {
		return nil, err
	}
	if opts.Algorithm == "" {
		opts.Algorithm = DefaultAlgorithm
	}
	if opts.Algorithm != "none" {
		if _, err := casch.NewScheduler(opts.Algorithm, opts.Seed); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadAlgorithm, err)
		}
	}
	if fp := opts.Faults; fp != nil {
		if err := fp.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFaultUnsupported, err)
		}
		if fp.MsgLoss > 0 || fp.MsgDelay > 0 || fp.Jitter > 0 {
			return nil, ErrFaultUnsupported
		}
	}

	e := &engine{
		opts:     opts,
		policy:   policy,
		dead:     make([]bool, opts.Procs),
		frontier: make([]float64, opts.Procs),
		onProc:   make([][]commitRef, opts.Procs),
		events:   pq.Heap[event]{Less: eventLess},
	}
	e.ready.Less = e.less
	if s := opts.Metrics; s != nil {
		e.mArrived = s.Counter("online.jobs_arrived")
		e.mCompleted = s.Counter("online.jobs_completed")
		e.mMissed = s.Counter("online.jobs_missed")
		e.mDispatched = s.Counter("online.tasks_dispatched")
		e.mAborted = s.Counter("online.tasks_aborted")
		e.mCrashes = s.Counter("online.crashes")
		e.mReplans = s.Counter("online.replans")
		e.mSoloPlans = s.Counter("online.solo_plans")
		e.mResponse = s.Histogram("online.response", obs.ExpBuckets(1, 2, 16))
		e.mTardiness = s.Histogram("online.tardiness", obs.ExpBuckets(1, 2, 16))
		e.mFairness = s.Gauge("online.fairness_jain")
		e.mMakespan = s.Gauge("online.makespan")
	}

	seen := make(map[string]bool, len(jobs))
	for i, job := range jobs {
		js, err := admit(job, i)
		if err != nil {
			return nil, fmt.Errorf("job %d (%q): %w", i, job.ID, err)
		}
		if seen[job.ID] {
			return nil, fmt.Errorf("job %d: %w: %q", i, ErrDuplicateID, job.ID)
		}
		seen[job.ID] = true
		e.jobs = append(e.jobs, js)
		e.toArrive = append(e.toArrive, i)
	}
	slices.SortStableFunc(e.toArrive, func(a, b int) int { return cmp.Compare(jobs[a].Arrival, jobs[b].Arrival) })
	e.queueNextArrival()
	if fp := opts.Faults; fp != nil {
		crashes := append([]sim.Crash(nil), fp.Crashes...)
		sort.SliceStable(crashes, func(a, b int) bool { return crashes[a].Time < crashes[b].Time })
		for i, c := range crashes {
			e.events.Push(event{time: c.Time, kind: evCrash, job: -1, node: c.Proc, idx: i})
		}
	}
	return e, nil
}

// admit validates one job and compiles its graph; plan.Compile is also
// the graph's validation.
func admit(job Job, seq int) (*jobState, error) {
	if job.ID == "" {
		return nil, ErrBadJobID
	}
	if job.Graph == nil {
		return nil, ErrNilGraph
	}
	v := job.Graph.NumNodes()
	if v == 0 {
		return nil, ErrEmptyGraph
	}
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	if bad(job.Arrival) || job.Arrival < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadArrival, job.Arrival)
	}
	if bad(job.Deadline) || job.Deadline < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadDeadline, job.Deadline)
	}
	if job.Deadline > 0 && job.Deadline <= job.Arrival {
		return nil, fmt.Errorf("%w: deadline %v not after arrival %v", ErrBadDeadline, job.Deadline, job.Arrival)
	}
	if bad(job.Weight) || job.Weight < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadWeight, job.Weight)
	}
	if job.Weight == 0 {
		job.Weight = 1
	}
	cg, err := plan.Compile(job.Graph)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadGraph, err)
	}
	js := &jobState{
		job:        job,
		seq:        seq,
		cg:         cg,
		rank:       make([]int32, v),
		pending:    make([]int32, v),
		status:     make([]taskStatus, v),
		proc:       make([]int32, v),
		start:      make([]float64, v),
		finish:     make([]float64, v),
		cseq:       make([]int32, v),
		unfinished: v,
	}
	for i, n := range cg.CPNDominate {
		js.rank[n] = int32(i)
	}
	off := cg.CSR.PredOff
	for i := range js.pending {
		js.pending[i] = off[i+1] - off[i]
	}
	return js, nil
}

// queueNextArrival moves the next job to arrive into the event queue.
func (e *engine) queueNextArrival() {
	if len(e.toArrive) == 0 {
		return
	}
	j := e.toArrive[0]
	e.toArrive = e.toArrive[1:]
	e.events.Push(event{time: e.jobs[j].job.Arrival, kind: evArrival, job: j, node: -1})
}

func (e *engine) loop() {
	for e.events.Len() > 0 {
		t := e.events.Peek().time
		for e.events.Len() > 0 && e.events.Peek().time == t {
			ev := e.events.Pop()
			switch ev.kind {
			case evFinish:
				e.onFinish(ev)
			case evArrival:
				e.queueNextArrival()
				e.onArrival(ev.job, t)
			case evCrash:
				e.onCrash(ev.node, t)
			}
		}
		e.dispatch(t)
	}
}

// commit reserves [start,finish) on p for one task and schedules its
// completion.
func (e *engine) commit(js *jobState, node, p int, start, finish float64) {
	js.status[node] = taskCommitted
	js.proc[node] = int32(p)
	js.start[node] = start
	js.finish[node] = finish
	js.cseq[node]++
	e.onProc[p] = append(e.onProc[p], commitRef{job: js.seq, node: node, cseq: js.cseq[node]})
	if finish > e.frontier[p] {
		e.frontier[p] = finish
	}
	e.events.Push(event{time: finish, kind: evFinish, job: js.seq, node: node, cseq: js.cseq[node]})
	e.mDispatched.Inc()
}

func (e *engine) onFinish(ev event) {
	js := e.jobs[ev.job]
	if js.status[ev.node] != taskCommitted || js.cseq[ev.node] != ev.cseq {
		return // stale: the commitment was torn down by a crash
	}
	js.status[ev.node] = taskDone
	js.unfinished--
	if f := js.finish[ev.node]; f > js.maxFinish {
		js.maxFinish = f
	}
	c := js.cg.CSR
	for _, to := range c.SuccTo[c.SuccOff[ev.node]:c.SuccOff[ev.node+1]] {
		child := int(to)
		js.pending[child]--
		if js.pending[child] == 0 && js.status[child] == taskUnscheduled {
			e.ready.Push(taskRef{job: js.seq, node: child})
		}
	}
	if js.unfinished == 0 {
		js.done = true
		e.live--
		e.mCompleted.Inc()
		e.mResponse.Observe(js.maxFinish - js.job.Arrival)
		if d := js.job.Deadline; d > 0 && js.maxFinish > d+eps {
			e.mMissed.Inc()
			e.mTardiness.Observe(js.maxFinish - d)
		}
	}
}

func (e *engine) onArrival(j int, t float64) {
	js := e.jobs[j]
	js.arrived = true
	e.live++
	e.mArrived.Inc()
	if e.trySolo(js, t) {
		return
	}
	for i := 0; i < len(js.pending); i++ {
		if js.pending[i] == 0 {
			e.ready.Push(taskRef{job: j, node: i})
		}
	}
}

// trySolo delegates a job arriving to an idle, crash-free machine to
// the registry algorithm in one piece: the offline schedule, dispatched
// from the job's plan as the batch engine dispatches it and shifted to
// the arrival instant, is committed as the job's reservations. Returns
// false (and leaves the job to dynamic dispatch) when the machine is
// not idle, a crash already happened, delegation is disabled, or the
// delegate's schedule does not fit the machine.
func (e *engine) trySolo(js *jobState, t float64) bool {
	if e.opts.Algorithm == "none" || e.anyCrash || e.live != 1 {
		return false
	}
	for p := 0; p < e.opts.Procs; p++ {
		if e.frontier[p] > t {
			return false
		}
	}
	s, err := casch.NewScheduler(e.opts.Algorithm, e.opts.Seed)
	if err != nil {
		return false // unreachable: validated at admission
	}
	out, err := casch.ScheduleCompiled(context.Background(), s, js.cg, e.opts.Procs)
	if err != nil || out == nil {
		return false
	}
	if err := sched.ValidateFlat(js.cg.CSR, out); err != nil {
		return false
	}
	v := js.job.Graph.NumNodes()
	order := make([]int, v)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := out.Of(dag.NodeID(order[a])), out.Of(dag.NodeID(order[b]))
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		return order[a] < order[b]
	})
	for _, i := range order {
		pl := out.Of(dag.NodeID(i))
		if pl.Proc < 0 || pl.Proc >= e.opts.Procs {
			// The delegate overflowed the machine (an unbounded
			// clustering algorithm can use more processors than the
			// machine has); dispatch dynamically instead.
			return false
		}
	}
	for _, i := range order {
		pl := out.Of(dag.NodeID(i))
		e.commit(js, i, pl.Proc, pl.Start+t, pl.Finish+t)
	}
	js.solo = true
	e.mSoloPlans.Inc()
	return true
}

// dispatch places ready tasks onto currently free processors in policy
// order: each task takes the free processor finishing it earliest,
// accounting for cross-processor message arrivals from its parents.
// Every parent of a ready task finished by t, so the task's arrivals,
// swept once at its first free processor, price each free processor at
// t in O(1). Whether any processor is free at t does not depend on the
// task, so the first task that finds none ends the instant: everything
// behind it in policy order waits too.
func (e *engine) dispatch(t float64) {
	for e.ready.Len() > 0 {
		ref := e.ready.Peek()
		js := e.jobs[ref.job]
		bestP := -1
		var bestStart, bestFinish float64
		var arr listsched.Arrivals
		w := js.cg.CSR.NodeW[ref.node]
		for p := 0; p < e.opts.Procs; p++ {
			if e.dead[p] || e.frontier[p] > t {
				continue
			}
			if bestP < 0 {
				arr = listsched.ArrivalsOf(js.cg.CSR, ref.node, js.proc, js.finish)
			}
			st := arr.StartOn(p, t)
			if fin := st + w; bestP < 0 || fin < bestFinish {
				bestP, bestStart, bestFinish = p, st, fin
			}
		}
		if bestP < 0 {
			return
		}
		e.ready.Pop()
		e.commit(js, ref.node, bestP, bestStart, bestFinish)
	}
}

// compactProcs drops invalidated timeline entries and recomputes the
// frontiers from the surviving ones.
func (e *engine) compactProcs() {
	for p := range e.onProc {
		list := e.onProc[p][:0]
		for _, r := range e.onProc[p] {
			if e.valid(p, r) {
				list = append(list, r)
			}
		}
		e.onProc[p] = list
		f := 0.0
		if len(list) > 0 {
			last := list[len(list)-1]
			f = e.jobs[last.job].finish[last.node]
		}
		e.frontier[p] = f
	}
}

// onCrash kills processor p at time t: commitments the crash
// invalidates are torn down, and every affected job's unexecuted
// suffix is replanned onto the survivors via resched.PlanSuffix — in
// policy order, each repair spliced into the shared timeline before
// the next.
func (e *engine) onCrash(p int, t float64) {
	if p < 0 || p >= e.opts.Procs || e.dead[p] {
		return // crashes naming unknown or already-dead processors are no-ops
	}
	e.dead[p] = true
	e.anyCrash = true
	e.crashes++
	e.mCrashes.Inc()

	// Tear down the dead processor's future: started tasks are aborted
	// (their partial work is lost), unstarted reservations cancelled.
	// Every job that lost a placement is affected and will be replanned
	// wholesale, so its reservations on survivors that have not started
	// yet are cancelled too.
	affected := map[int]bool{}
	for _, r := range e.onProc[p] {
		if !e.valid(p, r) {
			continue
		}
		js := e.jobs[r.job]
		if js.status[r.node] != taskCommitted { // finished before t: results checkpointed
			continue
		}
		if js.start[r.node] < t {
			js.aborted++
			e.aborted++
			e.mAborted.Inc()
		}
		js.status[r.node] = taskUnscheduled
		js.cseq[r.node]++
		affected[r.job] = true
	}
	if len(affected) == 0 {
		e.compactProcs()
		return
	}

	var survivors []int
	for q := 0; q < e.opts.Procs; q++ {
		if !e.dead[q] {
			survivors = append(survivors, q)
		}
	}

	order := make([]int, 0, len(affected))
	for j := range affected {
		order = append(order, j)
	}
	sort.Slice(order, func(a, b int) bool { return e.jobLess(e.jobs[order[a]], e.jobs[order[b]]) })

	for _, j := range order {
		js := e.jobs[j]
		// Cancel the job's unstarted reservations everywhere: the whole
		// suffix is replanned. In-flight tasks on survivors keep
		// running and count as prefix (their finish is guaranteed).
		for i := range js.status {
			if js.status[i] == taskCommitted && js.start[i] >= t {
				js.status[i] = taskUnscheduled
				js.cseq[i]++
			}
		}
	}
	e.compactProcs()
	// The affected jobs' ready entries are superseded by their repairs.
	e.ready.Filter(func(r taskRef) bool { return !affected[r.job] })

	if len(survivors) == 0 {
		return // quiescence: unfinished jobs surface as ErrAllProcessorsDead
	}
	for _, j := range order {
		e.replanJob(e.jobs[j], survivors, t)
	}
}

// replanJob splices one affected job's repaired suffix into the shared
// timeline: resched.PlanSuffix replans every task not yet finished (or
// guaranteed to finish on a survivor) no earlier than the current
// survivor frontiers, and the resulting placements are committed as
// reservations the rest of the stream packs behind.
func (e *engine) replanJob(js *jobState, survivors []int, t float64) {
	v := js.job.Graph.NumNodes()
	pre := resched.Prefix{
		Done:   make([]bool, v),
		Finish: js.finish,
		Proc:   make([]int, v),
	}
	for i := 0; i < v; i++ {
		if js.status[i] != taskUnscheduled {
			pre.Done[i] = true
			pre.Proc[i] = int(js.proc[i])
		}
	}
	floor := make(map[int]float64, len(survivors))
	for _, q := range survivors {
		floor[q] = e.frontier[q]
		if t > floor[q] {
			floor[q] = t
		}
	}
	seed := e.opts.Seed + int64(js.seq+1)*7919 + int64(e.crashes)*104729
	plan, err := resched.PlanSuffix(js.job.Graph, pre, survivors, floor, resched.Options{
		MaxSteps: e.opts.ReplanSteps,
		Seed:     seed,
		Metrics:  e.opts.Metrics,
	})
	if err != nil || plan == nil {
		// PlanSuffix only fails on malformed inputs the engine never
		// produces; treat a failure as "no repair" and let the tasks
		// re-enter dynamic dispatch so nothing is silently dropped.
		for i := 0; i < v; i++ {
			if js.status[i] == taskUnscheduled && js.pending[i] == 0 {
				e.ready.Push(taskRef{job: js.seq, node: i})
			}
		}
		return
	}
	order := make([]int, len(plan.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if plan.Start[order[a]] != plan.Start[order[b]] {
			return plan.Start[order[a]] < plan.Start[order[b]]
		}
		return plan.Nodes[order[a]] < plan.Nodes[order[b]]
	})
	for _, i := range order {
		e.commit(js, int(plan.Nodes[i]), plan.Proc[i], plan.Start[i], plan.Finish[i])
	}
	js.replans++
	e.replans++
	e.mReplans.Inc()
}
