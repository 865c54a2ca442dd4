package fastsched

import (
	"context"
	"io"

	"fastsched/internal/batch"
	"fastsched/internal/bounds"
	"fastsched/internal/casch"
	"fastsched/internal/codegen"
	"fastsched/internal/dag"
	"fastsched/internal/dls"
	"fastsched/internal/dsc"
	"fastsched/internal/dup"
	"fastsched/internal/etf"
	"fastsched/internal/example"
	"fastsched/internal/ez"
	"fastsched/internal/fast"
	"fastsched/internal/frontend"
	"fastsched/internal/hlfet"
	"fastsched/internal/lc"
	"fastsched/internal/listsched"
	"fastsched/internal/mcp"
	"fastsched/internal/md"
	"fastsched/internal/mh"
	"fastsched/internal/obs"
	"fastsched/internal/online"
	"fastsched/internal/optimal"
	"fastsched/internal/plan"
	"fastsched/internal/report"
	"fastsched/internal/resched"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
	"fastsched/internal/timing"
	"fastsched/internal/transform"
	"fastsched/internal/workload"
)

// Core graph and schedule types.
type (
	// Graph is a node- and edge-weighted directed acyclic task graph.
	Graph = dag.Graph
	// NodeID identifies a node within a Graph.
	NodeID = dag.NodeID
	// Node is one task of a Graph.
	Node = dag.Node
	// Edge is one message/precedence constraint of a Graph.
	Edge = dag.Edge
	// Levels holds t-level, b-level, static-level and ALAP attributes.
	Levels = dag.Levels
	// Schedule assigns every task a processor and a time slot.
	Schedule = sched.Schedule
	// Placement is one task's slot within a Schedule.
	Placement = sched.Placement
	// Scheduler is the interface all algorithms implement.
	Scheduler = sched.Scheduler
)

// NewGraph returns an empty task graph with capacity for n nodes.
func NewGraph(n int) *Graph { return dag.New(n) }

// ReadGraphJSON parses a task graph from its JSON form.
func ReadGraphJSON(r io.Reader) (*Graph, string, error) { return dag.ReadJSON(r) }

// WriteGraphJSON serializes a task graph to JSON.
func WriteGraphJSON(w io.Writer, g *Graph, name string) error { return dag.WriteJSON(w, g, name) }

// GraphDOT renders a task graph in Graphviz dot syntax.
func GraphDOT(g *Graph, name string) string { return dag.DOT(g, name) }

// ReadGraphSTG parses a task graph in the Standard Task Graph (STG)
// benchmark format; every edge gets defaultComm as its communication
// cost (STG carries none).
func ReadGraphSTG(r io.Reader, defaultComm float64) (*Graph, error) {
	return dag.ReadSTG(r, defaultComm)
}

// WriteGraphSTG serializes a task graph in STG form (communication
// costs are dropped; STG cannot represent them).
func WriteGraphSTG(w io.Writer, g *Graph) error { return dag.WriteSTG(w, g) }

// WriteScheduleJSON serializes a complete schedule.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return sched.WriteJSON(w, s) }

// ReadScheduleJSON parses a schedule and validates it against g.
func ReadScheduleJSON(r io.Reader, g *Graph) (*Schedule, error) { return sched.ReadJSON(r, g) }

// LowerBounds holds the schedule-length lower bounds of a graph.
type LowerBounds = bounds.Result

// ComputeBounds returns the dependence (computation-only critical
// path) and area (work / processors) lower bounds for g on procs
// processors.
func ComputeBounds(g *Graph, procs int) (LowerBounds, error) { return bounds.Compute(g, procs) }

// ComputeLevels computes the scheduling attributes (t-level, b-level,
// static level, ALAP, critical-path length) of every node in O(v+e).
func ComputeLevels(g *Graph) (*Levels, error) { return dag.ComputeLevels(g) }

// GraphProfile characterizes a task graph's structure (height, width,
// CCR, available parallelism).
type GraphProfile = dag.Profile

// ComputeProfile analyzes g's structure in O(v+e).
func ComputeProfile(g *Graph) (GraphProfile, error) { return dag.ComputeProfile(g) }

// CriticalPath returns one critical path of g.
func CriticalPath(g *Graph, l *Levels) []NodeID { return dag.CriticalPath(g, l) }

// Schedulers. Each constructor returns a ready-to-use Scheduler whose
// Schedule(g, procs) method maps every node of g onto processors;
// procs <= 0 requests an unbounded ("more than enough") machine.

// FASTOptions configures the FAST scheduler: the steps of the paper's
// greedy search (MaxSteps < 0 returns phase 1 alone, FAST/initial), or
// an anytime wall-clock Budget instead, seed, the phase-1 ablations
// (list order; Insertion, which needs MaxSteps < 0), PFAST parallelism
// and multi-start. See internal/fast.Options.
type FASTOptions = fast.Options

// FAST returns the paper's scheduler with default options
// (CPN-Dominate list, ready-time placement, MAXSTEP=64).
func FAST() Scheduler { return fast.Default() }

// FASTWith returns a FAST scheduler with explicit options.
func FASTWith(opts FASTOptions) Scheduler { return fast.New(opts) }

// FindFAST runs the paper's default FAST configuration under ctx. On
// cancellation or deadline expiry it returns the best schedule found so
// far together with ctx.Err(), so callers can keep the partial result.
func FindFAST(ctx context.Context, g *Graph, procs int) (*Schedule, error) {
	return fast.Find(ctx, g, procs)
}

// PFAST returns the parallel multi-start FAST variant with the given
// number of concurrent searchers.
func PFAST(parallelism int, seed int64) Scheduler {
	return fast.New(fast.Options{Parallelism: parallelism, Seed: seed})
}

// ETF returns the Earliest-Task-First scheduler (Hwang et al.).
func ETF() Scheduler { return etf.New() }

// DLS returns the Dynamic-Level-Scheduling scheduler (Sih & Lee).
func DLS() Scheduler { return dls.New() }

// MD returns the Mobility-Directed scheduler (Wu & Gajski).
func MD() Scheduler { return md.New() }

// DSC returns the Dominant-Sequence-Clustering scheduler
// (Yang & Gerasoulis).
func DSC() Scheduler { return dsc.New() }

// HLFET returns the Highest-Level-First-with-Estimated-Times scheduler
// (Adam, Chandy, Dickson) from the extended classical suite.
func HLFET() Scheduler { return hlfet.New() }

// MCP returns the Modified-Critical-Path scheduler (Wu & Gajski) from
// the extended classical suite.
func MCP() Scheduler { return mcp.New() }

// LC returns the Linear-Clustering scheduler (Kim & Browne) from the
// extended classical suite.
func LC() Scheduler { return lc.New() }

// EZ returns Sarkar's Edge-Zeroing scheduler from the extended
// classical suite.
func EZ() Scheduler { return ez.New() }

// MH returns the Mapping-Heuristic scheduler (El-Rewini & Lewis), the
// topology-aware classic; pass the mesh model the machine will use.
func MH(topology MeshTopology) Scheduler { return mh.New(topology) }

// Optimal returns the exact branch-and-bound solver, feasible for
// small graphs (roughly v <= 25–30 depending on structure); it errors
// when its expansion budget is exceeded rather than returning a
// suboptimal schedule. SolveOptimal is the anytime variant that also
// reports how the search went.
func Optimal() Scheduler { return optimal.New() }

// OptimalReport describes an exact solve: whether optimality was
// proven, the best makespan and root lower bound, the effective
// processor count (and whether it was defaulted), and the search-work
// counters.
type OptimalReport = optimal.Report

// ErrOptimalBudget is returned by Optimal().Schedule when the
// branch-and-bound search exhausts its expansion budget before proving
// optimality; treat it as "instance too large for exact solving".
var ErrOptimalBudget = optimal.ErrBudgetExceeded

// SolveOptimal runs the exact branch-and-bound solver in anytime mode:
// the returned schedule is always valid — the canonical optimum when
// the report says Proven, otherwise the best incumbent found within
// the budget. procs <= 0 selects min(v, 4), surfaced in the report.
func SolveOptimal(g *Graph, procs int) (*Schedule, OptimalReport, error) {
	return optimal.New().Solve(g, procs)
}

// DuplicationResult is a duplication schedule: a derived graph with
// cloned task executions plus a conventional schedule over it.
type DuplicationResult = dup.Result

// Duplicate schedules g with the DSH-style duplication heuristic (the
// third classic family: tasks may be re-executed on several processors
// to avoid waiting for messages). The result carries its own derived
// graph because duplication breaks the one-placement-per-task model.
func Duplicate(g *Graph, procs int) (*DuplicationResult, error) {
	return dup.New().Schedule(g, procs)
}

// NewScheduler constructs a scheduler by name ("fast", "fast-initial",
// "pfast", "dsc", "md", "etf", "dls").
func NewScheduler(name string, seed int64) (Scheduler, error) {
	return casch.NewScheduler(name, seed)
}

// Observability. The obs layer is zero-dependency and nil-safe: a nil
// registry/sink/trajectory disables telemetry with no allocations on
// the scheduler hot paths.

// MetricsRegistry collects named counters, gauges, bounded histograms
// and timers, and dumps itself as JSON or text.
type MetricsRegistry = obs.Registry

// MetricsSink is the metric-creation interface the instrumented layers
// accept; *MetricsRegistry implements it.
type MetricsSink = obs.Sink

// MetricSnapshot is the exported state of one metric.
type MetricSnapshot = obs.Snapshot

// SearchTrajectory records one event per FAST local-search step and
// exports them as JSONL.
type SearchTrajectory = obs.Trajectory

// SearchStepEvent is one recorded local-search transfer attempt.
type SearchStepEvent = obs.StepEvent

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSearchTrajectory returns a bounded search-step recorder (max <= 0
// selects the default cap).
func NewSearchTrajectory(max int) *SearchTrajectory { return obs.NewTrajectory(max) }

// EnableSchedulerMetrics routes the package-level telemetry of the
// list-scheduling machinery (insertion hit rate, DAT-cache hits,
// ready-list sizes) into sink; nil disables it again.
func EnableSchedulerMetrics(sink MetricsSink) { listsched.EnableMetrics(sink) }

// instrumentable is implemented by schedulers that accept a metrics
// sink and trajectory recorder after construction (the FAST family).
type instrumentable interface {
	Instrument(sink obs.Sink, traj *obs.Trajectory)
}

// Instrument attaches sink and traj to s when s supports telemetry
// (the FAST family: fast, fast-initial, pfast, and fast-hier for a sink
// alone), reporting whether it did. A trajectory needs a search to
// record, so with a non-nil traj only the FAST schedulers qualify.
// Schedulers without their own hooks still contribute through
// EnableSchedulerMetrics and SimConfig.Metrics.
func Instrument(s Scheduler, sink MetricsSink, traj *SearchTrajectory) bool {
	i, ok := s.(instrumentable)
	if traj != nil {
		_, ok = s.(*fast.Scheduler)
	}
	if ok {
		i.Instrument(sink, traj)
	}
	return ok
}

// AlgorithmNames lists the names NewScheduler accepts.
func AlgorithmNames() []string { return casch.AlgorithmNames() }

// Compiled plans. A compiled graph bundles every immutable per-graph
// artifact the schedulers consume — CSR adjacency, level metrics,
// node classification, the CPN-Dominate list — computed once per
// unique graph and shared read-only across runs. Serving paths that
// schedule the same graph repeatedly (the batch engine does this
// automatically) skip the per-request graph analysis entirely;
// results are bit-identical to uncompiled runs.

// CompiledGraph is the immutable compiled form of a task graph: its
// CSR, the level tables, the classification and both FAST priority
// lists. It holds no *Graph: CompiledGraph.CSR.ToGraph rebuilds one
// with every slot in stored order. It carries no content key; GraphKey
// computes one.
type CompiledGraph = plan.CompiledGraph

// GraphContentKey is a graph's content address: a SHA-256 over its
// weights and adjacency in stored order (see GraphKey).
type GraphContentKey = plan.Key

// PlanCache is a content-addressed LRU over compiled graphs with
// single-flight compilation, on the same 16-shard LRU as the batch
// engine's result cache. It counts plan.compile_hits, _misses,
// _evictions and _shared (calls that waited on another's compile).
type PlanCache = plan.Cache

// CompileGraph validates g as Graph.Validate does and analyzes it once.
// It errors when g is empty or invalid; an invalid graph's error
// matches the same errors.Is sentinel Validate's does.
func CompileGraph(g *Graph) (*CompiledGraph, error) { return plan.Compile(g) }

// GraphKey returns g's content address without compiling it: a
// SHA-256 over the weights and the successor lists in stored order,
// and over each node's parents in stored order too when some node
// lists its parents out of ascending ID order, since FAST, PFAST and
// DSC break ties in predecessor order.
func GraphKey(g *Graph) GraphContentKey { return plan.GraphKey(g) }

// NewPlanCache returns a compilation cache holding at most max
// compiled graphs (0 selects the default size); sink, when non-nil,
// receives the plan.* metrics.
func NewPlanCache(max int, sink MetricsSink) *PlanCache { return plan.NewCache(max, sink) }

// ScheduleCompiled schedules a pre-compiled graph with s: through s's
// plan entry when it has one, as every registry algorithm does, else,
// for a caller's own scheduler, through s.Schedule on the graph
// CSR.ToGraph rebuilds from the plan (nodes labelled t<i>, every slot
// in stored order). A registry algorithm's result is bit-identical to
// s.Schedule on the original graph. FAST's Options.Context, when set,
// still bounds the run. A plan carries no content key; GraphKey
// computes one.
func ScheduleCompiled(s Scheduler, cg *CompiledGraph, procs int) (*Schedule, error) {
	if ps, ok := s.(casch.Scheduler); ok {
		return casch.ScheduleCompiled(nil, ps, cg, procs)
	}
	return s.Schedule(cg.CSR.ToGraph(), procs)
}

// Batch serving. The batch engine schedules many DAGs concurrently
// through a bounded worker pool with backpressure, a content-addressed
// result cache and single-flight deduplication of identical requests.

// BatchEngine is the concurrent multi-DAG scheduling engine.
type BatchEngine = batch.Engine

// BatchOptions configures a BatchEngine (workers, queue depth, cache
// size, metrics sink).
type BatchOptions = batch.Options

// BatchRequest is one scheduling job: graph, processor count,
// algorithm, seed, and optional per-request deadline or search budget.
type BatchRequest = batch.Request

// BatchResult is the outcome of one BatchRequest.
type BatchResult = batch.Result

// BatchFileResult is one directory entry's outcome in a batch run.
type BatchFileResult = batch.FileResult

// BatchAggregate summarizes a directory batch run.
type BatchAggregate = batch.Aggregate

// The batch engine's typed request-rejection errors; classify with
// errors.Is.
var (
	ErrBatchClosed       = batch.ErrClosed
	ErrBatchQueueFull    = batch.ErrQueueFull
	ErrBatchNilGraph     = batch.ErrNilGraph
	ErrBatchEmptyGraph   = batch.ErrEmptyGraph
	ErrBatchBadDeadline  = batch.ErrBadDeadline
	ErrBatchBadBudget    = batch.ErrBadBudget
	ErrBatchBadAlgorithm = batch.ErrBadAlgorithm
	ErrBatchBadGraph     = batch.ErrBadGraph
)

// NewBatchEngine returns a started engine; Close it when done.
func NewBatchEngine(opts BatchOptions) *BatchEngine { return batch.New(opts) }

// RunBatchDir schedules every *.json task graph of dir through e
// concurrently, using tmpl for everything but ID and Graph.
func RunBatchDir(ctx context.Context, e *BatchEngine, dir string, tmpl BatchRequest) ([]BatchFileResult, BatchAggregate, error) {
	return batch.RunDir(ctx, e, dir, tmpl)
}

// WriteBatchJSONL emits one compact JSON object per batch file result.
func WriteBatchJSONL(w io.Writer, results []BatchFileResult) error {
	return batch.WriteJSONL(w, results)
}

// FormatBatchAggregate renders a batch run's aggregate as plain text.
func FormatBatchAggregate(agg BatchAggregate, workers int) string {
	return report.BatchText(agg, workers)
}

// Online serving. The online engine runs a stream of jobs — DAGs with
// arrival times, deadlines, tenants and weights — against one shared
// machine over simulated time, with deadline misses, tardiness,
// response times and per-tenant fairness as first-class outcomes, and
// mid-stream processor crashes repaired through the rescheduler.

// OnlineJob is one arriving unit of work: a task graph plus arrival
// time, optional absolute deadline, tenant and share weight.
type OnlineJob = online.Job

// OnlineOptions configures an online run (machine size, packing
// policy, solo-plan delegate algorithm, fault plan, metrics).
type OnlineOptions = online.Options

// OnlineJobResult is one job's realized outcome — the JSONL trace
// record of fastsched -online.
type OnlineJobResult = online.JobResult

// OnlineReport aggregates an online run: misses, tardiness, response
// times, crash repairs, per-tenant fairness.
type OnlineReport = online.Report

// Typed online submission errors, classifiable with errors.Is.
var (
	ErrOnlineBadProcs         = online.ErrBadProcs
	ErrOnlineBadPolicy        = online.ErrBadPolicy
	ErrOnlineBadArrival       = online.ErrBadArrival
	ErrOnlineBadDeadline      = online.ErrBadDeadline
	ErrOnlineDuplicateID      = online.ErrDuplicateID
	ErrOnlineFaultUnsupported = online.ErrFaultUnsupported
	ErrOnlineAllProcsDead     = online.ErrAllProcessorsDead
)

// OnlinePolicyNames lists the accepted packing policies.
func OnlinePolicyNames() []string { return online.PolicyNames() }

// RunOnline drives the whole workload to quiescence and reports
// per-job outcomes in submission order. Bit-identical for a fixed seed
// across runs and GOMAXPROCS settings.
func RunOnline(jobs []OnlineJob, opts OnlineOptions) (*OnlineReport, error) {
	return online.Run(jobs, opts)
}

// WriteOnlineJSONL emits one JSON object per job outcome plus a final
// aggregate record.
func WriteOnlineJSONL(w io.Writer, rep *OnlineReport) error { return online.WriteJSONL(w, rep) }

// FormatOnlineReport renders an online run's aggregate as plain text.
func FormatOnlineReport(rep *OnlineReport) string { return report.OnlineText(rep) }

// ArrivalOptions configures the seeded arrival-time generator
// (Poisson or bursty) feeding the online engine.
type ArrivalOptions = workload.ArrivalOpts

// GenerateArrivals draws n nondecreasing arrival instants
// deterministically from the seed.
func GenerateArrivals(opts ArrivalOptions) ([]float64, error) { return workload.Arrivals(opts) }

// Validate checks that s is a legal execution of g: complete, overlap-
// free, and respecting every precedence and communication delay.
func Validate(g *Graph, s *Schedule) error { return sched.Validate(g, s) }

// ValidateDurations is Validate with per-node realized durations in
// place of the graph weights — for spliced crash-recovery schedules
// whose executed prefix ran with jittered durations. A nil dur slice is
// plain Validate.
func ValidateDurations(g *Graph, s *Schedule, dur []float64) error {
	return sched.ValidateDurations(g, s, dur)
}

// Gantt renders s as a text Gantt chart of the given width.
func Gantt(g *Graph, s *Schedule, width int) string { return sched.Gantt(g, s, width) }

// ScheduleTable renders s as a start-time-ordered placement table.
func ScheduleTable(g *Graph, s *Schedule) string { return sched.Table(g, s) }

// GanttSVG renders s as a standalone SVG Gantt chart of the given pixel
// width.
func GanttSVG(g *Graph, s *Schedule, width int) string { return sched.SVG(g, s, width) }

// CriticalChainLink is one step of a schedule's binding event chain.
type CriticalChainLink = sched.CriticalChainLink

// CriticalChain explains a schedule's makespan: the backward chain of
// binding constraints (message waits, processor waits) from the last
// task to a chain head.
func CriticalChain(g *Graph, s *Schedule) ([]CriticalChainLink, error) {
	return sched.CriticalChain(g, s)
}

// FormatChain renders a critical chain with task labels.
func FormatChain(g *Graph, s *Schedule, chain []CriticalChainLink) string {
	return sched.FormatChain(g, s, chain)
}

// ScheduleMetrics summarizes schedule quality (imbalance, cross-edge
// traffic, efficiency).
type ScheduleMetrics = sched.Metrics

// ComputeScheduleMetrics derives the metrics of a complete schedule.
func ComputeScheduleMetrics(g *Graph, s *Schedule) ScheduleMetrics {
	return sched.ComputeMetrics(g, s)
}

// Workload generation.

// TimingDB converts operation counts and message sizes into task-graph
// weights; the stand-in for CASCH's benchmarked timing database.
type TimingDB = timing.DB

// ParagonLike returns the default machine cost model.
func ParagonLike() TimingDB { return timing.ParagonLike() }

// CoarseGrain returns a computation-dominated cost model (CCR << 1).
func CoarseGrain() TimingDB { return timing.CoarseGrain() }

// FineGrain returns a communication-dominated cost model (CCR >> 1).
func FineGrain() TimingDB { return timing.FineGrain() }

// ScaleCCR rescales g's edge weights to the target communication-to-
// computation ratio.
func ScaleCCR(g *Graph, target float64) *Graph { return timing.ScaleCCR(g, target) }

// GaussElim returns the Gaussian elimination task graph for matrix
// dimension n (paper §5.1; task counts match Figure 5 exactly).
func GaussElim(n int, db TimingDB) (*Graph, error) { return workload.GaussElim(n, db) }

// Laplace returns the Laplace equation solver task graph for an n×n
// grid (task counts match Figure 6 exactly).
func Laplace(n int, db TimingDB) (*Graph, error) { return workload.Laplace(n, db) }

// FFT returns the blocked-butterfly FFT task graph for the given number
// of points (task counts match Figure 7 exactly).
func FFT(points int, db TimingDB) (*Graph, error) { return workload.FFT(points, db) }

// LU returns the right-looking LU decomposition task graph for an n×n
// matrix.
func LU(n int, db TimingDB) (*Graph, error) { return workload.LU(n, db) }

// Cholesky returns the column-oriented Cholesky factorization task
// graph for an n×n matrix.
func Cholesky(n int, db TimingDB) (*Graph, error) { return workload.Cholesky(n, db) }

// Stencil returns the task graph of iters Jacobi sweeps over an n×n
// grid.
func Stencil(n, iters int, db TimingDB) (*Graph, error) { return workload.Stencil(n, iters, db) }

// DivideConquer returns the depth-d fork-join recursion task graph.
func DivideConquer(depth int, db TimingDB) (*Graph, error) { return workload.DivideConquer(depth, db) }

// RandomDAGOptions configures the §5.2 layered random DAG generator.
type RandomDAGOptions = workload.RandomOpts

// RandomDAG generates a layered random DAG per the paper's recipe.
func RandomDAG(opts RandomDAGOptions) (*Graph, error) { return workload.Random(opts) }

// PaperExampleGraph returns the reconstructed 9-node example DAG of the
// paper's Figure 1 (critical path n1 → n7 → n9, length 23).
func PaperExampleGraph() *Graph { return example.Graph() }

// Graph transformations.

// TransitiveReduction removes zero-weight precedence edges implied by
// longer paths, shrinking e without changing the legal schedules.
func TransitiveReduction(g *Graph) (*Graph, error) { return transform.TransitiveReduction(g) }

// GrainPackResult maps a coarsened graph back to its original tasks.
type GrainPackResult = transform.PackResult

// GrainPack fuses linear chains of small tasks into grains of at most
// maxGrain total weight (Sarkar-style granularity adjustment).
func GrainPack(g *Graph, maxGrain float64) (*GrainPackResult, error) {
	return transform.GrainPack(g, maxGrain)
}

// Execution simulation (the Intel Paragon stand-in).

// SimConfig selects machine effects for simulated execution.
type SimConfig = sim.Config

// MeshTopology adds Paragon-style 2D-mesh hop latency to the machine
// model (set SimConfig.Topology).
type MeshTopology = sim.Mesh

// SimReport is the outcome of one simulated execution.
type SimReport = sim.Report

// Simulate executes schedule s of graph g on the simulated machine.
func Simulate(g *Graph, s *Schedule, cfg SimConfig) (*SimReport, error) {
	return sim.Run(g, s, cfg)
}

// SimTrace holds the event trace of one simulated execution.
type SimTrace = sim.Tracer

// SimulateTraced is Simulate with event recording (task start/finish,
// message send/arrive), for timeline tooling and debugging.
func SimulateTraced(g *Graph, s *Schedule, cfg SimConfig) (*SimReport, *SimTrace, error) {
	return sim.RunTraced(g, s, cfg)
}

// Fault injection and crash recovery.

// FaultPlan injects deterministic seeded faults (processor crashes,
// transient message loss/delay with bounded retry, duration jitter)
// into a simulated execution; set SimConfig.Faults. The zero value
// injects nothing and reproduces fault-free runs bit-for-bit.
type FaultPlan = sim.FaultPlan

// ProcCrash schedules the permanent failure of one processor.
type ProcCrash = sim.Crash

// CrashError is returned by Simulate when processor crashes prevent
// completion; it freezes the executed prefix for RepairSchedule.
type CrashError = sim.CrashError

// MessageLossError is returned by Simulate when a message exhausts its
// retry budget.
type MessageLossError = sim.MessageLossError

// ReadFaultPlan parses and validates a fault plan from JSON.
func ReadFaultPlan(r io.Reader) (*FaultPlan, error) { return sim.ReadFaultPlan(r) }

// ReschedOptions configures crash recovery (suffix search budget, seed,
// optional context deadline).
type ReschedOptions = resched.Options

// ReschedResult is a repaired execution: the spliced schedule, the
// durations to validate it against, and the recovery bookkeeping.
type ReschedResult = resched.Result

// RepairSchedule replans the unexecuted suffix of a crashed run (the
// *CrashError from Simulate) onto the surviving processors using FAST's
// two phases, and splices it onto the frozen prefix.
func RepairSchedule(g *Graph, s *Schedule, crash *CrashError, opts ReschedOptions) (*ReschedResult, error) {
	return resched.Repair(g, s, crash, opts)
}

// SimulateWithRecovery executes the schedule and, when a crash prevents
// completion, repairs it via RepairSchedule; the Result is nil when no
// crash occurred.
func SimulateWithRecovery(g *Graph, s *Schedule, cfg SimConfig, opts ReschedOptions) (*SimReport, *ReschedResult, error) {
	return resched.Execute(g, s, cfg, opts)
}

// SimulateWithRecoveryTraced is SimulateWithRecovery with event
// recording; on a crash the trace holds the executed prefix, the replan
// marker and the repaired suffix.
func SimulateWithRecoveryTraced(g *Graph, s *Schedule, cfg SimConfig, opts ReschedOptions) (*SimReport, *ReschedResult, *SimTrace, error) {
	return resched.ExecuteTraced(g, s, cfg, opts)
}

// Sequential-program front end (the CASCH front half).

// SeqProgram is a sequential program: ordered tasks with read/write
// sets over named variables, lowered to a task graph by dependence
// analysis.
type SeqProgram = frontend.Program

// NewSeqProgram returns an empty sequential program whose undeclared
// variables cost defaultSize to ship between processors.
func NewSeqProgram(defaultSize float64) *SeqProgram { return frontend.NewProgram(defaultSize) }

// ParseSeqProgram reads a sequential program from its text form (see
// internal/frontend.Parse for the grammar).
func ParseSeqProgram(r io.Reader) (*SeqProgram, error) { return frontend.Parse(r) }

// Scheduled-code generation (the CASCH back end).

// Program is the compiled, scheduled form of a parallel program: one
// instruction sequence (COMPUTE/SEND/RECV) per processor.
type Program = codegen.Program

// Compile lowers a valid schedule to per-processor scheduled code.
func Compile(g *Graph, s *Schedule) (*Program, error) { return codegen.Compile(g, s) }

// ExecuteProgram runs compiled code on the instruction-level machine
// interpreter; it agrees with Simulate on the source schedule.
func ExecuteProgram(g *Graph, p *Program, cfg SimConfig) (*SimReport, error) {
	return codegen.Execute(g, p, cfg)
}

// PipelineResult bundles the metrics of one schedule-then-execute run.
type PipelineResult = casch.Result

// RunPipeline schedules g with s on procs processors, validates and
// executes the schedule, and reports execution time, processors used
// and scheduling time — the paper's three per-table metrics.
func RunPipeline(g *Graph, s Scheduler, procs int, machine SimConfig) (*PipelineResult, error) {
	return casch.Run(g, s, procs, machine)
}
