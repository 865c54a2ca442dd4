// Command fastsched schedules a task graph with any of the
// implemented algorithms and prints the resulting Gantt chart, the
// placement table and summary metrics.
//
// Usage:
//
//	fastsched -in graph.json [-algo fast] [-procs 8] [-seed 1] [-width 72] [-table] [-dot]
//	fastsched -demo          # run on the paper's Figure-1 example graph
//	fastsched -flat -in big.el -procs 8   # allocation-flat million-node path
//
// -flat is the scale path: the input streams through the arena-backed
// CSR readers and schedules with hierarchical FAST (or HLFET via
// -algo hlfet) on the compact kernels — no per-node graph or schedule
// objects are ever materialized, so 10⁶-node inputs run in O(v) flat
// arrays. Prints makespan, processors used and the PE busy-time
// balance instead of a Gantt chart.
//
// Telemetry and profiling:
//
//	-metrics out.json        # dump scheduler metrics (path or "-" for stdout)
//	-metrics-format text     # metrics dump format: json (default) or text
//	-trajectory steps.jsonl  # FAST local-search step trace as JSONL
//	-cpuprofile cpu.pprof -memprofile mem.pprof -exectrace run.trace
//
// The input format is the JSON produced by dagen (or
// fastsched.WriteGraphJSON); -in files ending in .stg parse as Standard
// Task Graph benchmarks (-comm sets the uniform communication cost STG
// lacks) and .el/.edgelist as the dagen streaming edge-list format,
// both ingested through the CSR streaming readers. -informat overrides
// the extension detection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"fastsched"
	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/fast"
	"fastsched/internal/hlfet"
	"fastsched/internal/sched"
)

// options carries every flag of the fastsched command.
type options struct {
	in         string
	informat   string  // json, stg, edgelist; "" = detect by extension
	comm       float64 // uniform communication cost for STG inputs
	demo       bool
	flat       bool // allocation-flat CSR pipeline (scale path)
	algo       string
	procs      int
	seed       int64
	width      int
	table      bool
	dot        bool
	svg        string
	why        bool
	deadline   time.Duration
	metrics    string // metrics dump destination; "" disables, "-" is stdout
	metricsFmt string // "json" or "text"
	trajectory string // JSONL search-step trace destination; "" disables
	cpuProfile string
	memProfile string
	execTrace  string

	// Batch mode: schedule a directory of task graphs concurrently.
	batchDir string // directory of *.json graphs; "" disables batch mode
	workers  int    // worker-pool size (<= 0: GOMAXPROCS)
	batchOut string // JSONL result stream destination ("-" for stdout)
	noCache  bool   // disable the content-addressed result cache

	// Online mode: a stream of jobs with arrivals and deadlines
	// competing for one shared machine.
	online    int     // number of jobs; 0 disables online mode
	policy    string  // packing policy: fifo, edf, fast
	arrival   string  // arrival process: poisson or bursty
	rate      float64 // mean arrivals (or burst epochs) per time unit
	burst     int     // jobs per burst epoch (bursty only)
	slack     float64 // deadline slack factor; 0 leaves jobs deadline-free
	tenants   int     // number of round-robin tenants
	faultPlan string  // JSON fault plan file injecting processor crashes
	onlineOut string  // JSONL trace destination ("-" for stdout)
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input task graph (JSON; .stg and .el/.edgelist are detected)")
	flag.StringVar(&o.informat, "informat", "", "input format: json, stg, edgelist (default: by extension)")
	flag.Float64Var(&o.comm, "comm", 1, "uniform communication cost for STG inputs (the format carries none)")
	flag.BoolVar(&o.demo, "demo", false, "use the paper's Figure-1 example graph")
	flag.BoolVar(&o.flat, "flat", false, "allocation-flat CSR pipeline: stream -in (stg/edgelist) through a ScaleArena and schedule with fast-hier (or -algo hlfet)")
	flag.StringVar(&o.algo, "algo", "fast", fmt.Sprintf("algorithm: %v", fastsched.AlgorithmNames()))
	flag.IntVar(&o.procs, "procs", 0, "available processors (<= 0: unbounded)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed for FAST's local search")
	flag.IntVar(&o.width, "width", 72, "Gantt chart width in columns")
	flag.BoolVar(&o.table, "table", false, "print the placement table as well")
	flag.BoolVar(&o.dot, "dot", false, "print the graph in Graphviz dot and exit")
	flag.StringVar(&o.svg, "svg", "", "also write the schedule as an SVG Gantt chart to this file")
	flag.BoolVar(&o.why, "why", false, "explain the makespan: print the schedule's critical chain")
	flag.DurationVar(&o.deadline, "deadline", 0, "wall-clock bound on scheduling; on expiry the best schedule found so far is kept (FAST family only)")
	flag.StringVar(&o.metrics, "metrics", "", "write scheduler metrics to this file (\"-\" for stdout)")
	flag.StringVar(&o.metricsFmt, "metrics-format", "json", "metrics dump format: json or text")
	flag.StringVar(&o.trajectory, "trajectory", "", "write the FAST local-search step trace (JSONL) to this file (\"-\" for stdout)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file")
	flag.StringVar(&o.execTrace, "exectrace", "", "write a runtime execution trace to this file")
	flag.StringVar(&o.batchDir, "batch", "", "batch mode: schedule every *.json task graph in this directory concurrently")
	flag.IntVar(&o.workers, "workers", 0, "batch worker-pool size (<= 0: GOMAXPROCS)")
	flag.StringVar(&o.batchOut, "batch-out", "-", "batch mode: JSONL result stream destination (\"-\" for stdout)")
	flag.BoolVar(&o.noCache, "no-cache", false, "batch mode: disable the content-addressed result cache")
	flag.IntVar(&o.online, "online", 0, "online mode: run this many arriving jobs against one shared machine")
	flag.StringVar(&o.policy, "policy", "edf", fmt.Sprintf("online packing policy: %v", fastsched.OnlinePolicyNames()))
	flag.StringVar(&o.arrival, "arrival", "poisson", "online arrival process: poisson or bursty")
	flag.Float64Var(&o.rate, "rate", 0.05, "online mean arrivals (bursty: burst epochs) per time unit")
	flag.IntVar(&o.burst, "burst", 4, "online jobs per burst epoch (bursty arrivals)")
	flag.Float64Var(&o.slack, "slack", 2, "online deadline slack: deadline = arrival + slack*work/procs (0: no deadlines)")
	flag.IntVar(&o.tenants, "tenants", 2, "online round-robin tenant count for the fairness accounting")
	flag.StringVar(&o.faultPlan, "fault-plan", "", "online: JSON fault plan file injecting processor crashes")
	flag.StringVar(&o.onlineOut, "online-out", "-", "online mode: JSONL trace destination (\"-\" for stdout)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fastsched:", err)
		os.Exit(1)
	}
}

// finder is the context-bounded scheduling entry point of the FAST
// family (see fastsched.FindFAST / fast.Scheduler.Find).
type finder interface {
	Find(ctx context.Context, g *fastsched.Graph, procs int) (*fastsched.Schedule, error)
}

// openSink opens path for writing, mapping "-" to os.Stdout. The
// returned close func is a no-op for stdout.
func openSink(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// startProfiling begins CPU profiling and execution tracing as
// requested and returns a stop function that also writes the heap
// profile. The stop function must run before metric dumps so profile
// files are complete even when run exits early.
func startProfiling(o options) (func() error, error) {
	var stops []func() error
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if o.execTrace != "" {
		f, err := os.Create(o.execTrace)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	if o.memProfile != "" {
		path := o.memProfile
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			return pprof.WriteHeapProfile(f)
		})
	}
	done := false // deferred backstop + explicit call: run once
	return func() error {
		if done {
			return nil
		}
		done = true
		var first error
		for _, stop := range stops {
			if err := stop(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// dumpTelemetry writes the metrics registry and the search trajectory
// to their configured destinations.
func dumpTelemetry(o options, reg *fastsched.MetricsRegistry, traj *fastsched.SearchTrajectory) error {
	if reg != nil {
		w, closeW, err := openSink(o.metrics)
		if err != nil {
			return err
		}
		switch o.metricsFmt {
		case "json":
			err = reg.WriteJSON(w)
		case "text":
			err = reg.WriteText(w)
		default:
			err = fmt.Errorf("unknown -metrics-format %q (want json or text)", o.metricsFmt)
		}
		if cerr := closeW(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if traj != nil {
		w, closeW, err := openSink(o.trajectory)
		if err != nil {
			return err
		}
		err = traj.WriteJSONL(w)
		if cerr := closeW(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runBatch is the -batch mode: schedule every task graph of a
// directory through the concurrent engine, stream JSONL results, and
// print the aggregate report.
func runBatch(o options) error {
	if o.deadline < 0 {
		return fmt.Errorf("-deadline must be positive, got %v", o.deadline)
	}
	var reg *fastsched.MetricsRegistry
	if o.metrics != "" {
		reg = fastsched.NewMetricsRegistry()
	}
	eng := fastsched.NewBatchEngine(fastsched.BatchOptions{
		Workers: o.workers,
		Metrics: reg,
	})
	defer eng.Close()

	tmpl := fastsched.BatchRequest{
		Procs:     o.procs,
		Algorithm: o.algo,
		Seed:      o.seed,
		Deadline:  o.deadline,
		NoCache:   o.noCache,
	}
	results, agg, err := fastsched.RunBatchDir(context.Background(), eng, o.batchDir, tmpl)
	if err != nil {
		return err
	}

	w, closeW, err := openSink(o.batchOut)
	if err != nil {
		return err
	}
	err = fastsched.WriteBatchJSONL(w, results)
	if cerr := closeW(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprint(os.Stderr, fastsched.FormatBatchAggregate(agg, workers))
	if err := dumpTelemetry(o, reg, nil); err != nil {
		return err
	}
	// The exit status is derived from the results actually written to
	// the JSONL sink, not from the aggregate alone: any line carrying an
	// error makes the run fail, and the failing files are named so a
	// pipeline log is actionable without re-opening the sink.
	var failed []string
	for _, r := range results {
		if r.Error != "" {
			failed = append(failed, r.File)
		}
	}
	if len(failed) != agg.Failed {
		// Should be impossible; if the ledgers ever disagree, say so
		// loudly instead of trusting either silently.
		fmt.Fprintf(os.Stderr, "warning: aggregate reports %d failures but %d results carry errors\n",
			agg.Failed, len(failed))
	}
	if len(failed) > 0 {
		const maxNamed = 5
		names := failed
		if len(names) > maxNamed {
			names = append(names[:maxNamed:maxNamed], "...")
		}
		return fmt.Errorf("%d of %d graphs failed (%s)", len(failed), agg.Requested, strings.Join(names, ", "))
	}
	return nil
}

// loadGraph reads -in in the requested (or extension-detected) format.
// STG and edge-list inputs go through the streaming CSR readers, then
// materialize a *Graph for the interactive pipeline — ToGraph replays
// the CSR in the legacy adjacency order, so the schedule is identical
// to one computed from an equivalent JSON input.
func loadGraph(o options) (*fastsched.Graph, string, error) {
	format := o.informat
	if format == "" {
		switch {
		case strings.HasSuffix(o.in, ".stg"):
			format = "stg"
		case strings.HasSuffix(o.in, ".el"), strings.HasSuffix(o.in, ".edgelist"):
			format = "edgelist"
		default:
			format = "json"
		}
	}
	f, err := os.Open(o.in)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	switch format {
	case "json":
		g, name, err := fastsched.ReadGraphJSON(f)
		if err != nil {
			return nil, "", err
		}
		if name == "" {
			name = o.in
		}
		return g, name, nil
	case "stg":
		c, err := dag.StreamSTG(f, o.comm)
		if err != nil {
			return nil, "", err
		}
		return c.ToGraph(), o.in, nil
	case "edgelist":
		c, err := dag.StreamEdgeList(f)
		if err != nil {
			return nil, "", err
		}
		return c.ToGraph(), o.in, nil
	default:
		return nil, "", fmt.Errorf("unknown -informat %q (want json, stg, edgelist)", format)
	}
}

// runFlat is the -flat mode: the million-node serving path end to end —
// streaming CSR ingest through a ScaleArena, scheduling on the compact
// kernels (hierarchical FAST by default, HLFET via -algo hlfet), flat
// validation — without ever materializing a *fastsched.Graph or
// per-node schedule objects. Prints summary metrics only: a Gantt
// chart of a million nodes helps nobody.
func runFlat(o options) error {
	if o.in == "" {
		return fmt.Errorf("-flat needs -in <file> (stg or edgelist)")
	}
	format := o.informat
	if format == "" {
		if strings.HasSuffix(o.in, ".stg") {
			format = "stg"
		} else {
			format = "edgelist"
		}
	}
	stopProfiling, err := startProfiling(o)
	if err != nil {
		return err
	}
	defer stopProfiling()

	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	arena := dag.NewScaleArena()
	loadStart := time.Now()
	var c *dag.CSR
	switch format {
	case "stg":
		c, err = dag.StreamSTGArena(f, o.comm, arena)
	case "edgelist":
		c, err = dag.StreamEdgeListArena(f, arena)
	default:
		return fmt.Errorf("-flat supports stg and edgelist inputs, not %q", format)
	}
	if err != nil {
		return err
	}
	loadTime := time.Since(loadStart)

	schedStart := time.Now()
	var fl *sched.Flat
	switch o.algo {
	case "fast", "fast-hier":
		h := fast.NewHierarchical(fast.HierOptions{Arena: arena})
		fl, err = h.ScheduleCSR(c, o.procs)
	case "hlfet":
		fl, err = hlfet.New().ScheduleCSR(c, o.procs)
	default:
		return fmt.Errorf("-flat supports -algo fast-hier (default) and hlfet, not %q", o.algo)
	}
	if err != nil {
		return err
	}
	schedTime := time.Since(schedStart)
	if err := sched.ValidateFlat(c, fl); err != nil {
		return fmt.Errorf("produced schedule is invalid: %v", err)
	}

	work := c.TotalWork()
	length := fl.Length()
	speedup := 0.0
	if length > 0 {
		speedup = work / length
	}
	fmt.Printf("%s: %d tasks, %d messages (%s, flat pipeline)\n",
		o.in, c.NumNodes(), c.NumEdges(), fl.Algorithm)
	fmt.Printf("schedule length %.6g  processors used %d  speedup %.2f  balance %.3f\n",
		length, fl.ProcsUsed(), speedup, fl.Balance())
	fmt.Printf("load %v  schedule %v  arena %.1f MB (%.1f B/node)\n",
		loadTime.Round(time.Millisecond), schedTime.Round(time.Millisecond),
		float64(arena.Footprint())/(1<<20), float64(arena.Footprint())/float64(c.NumNodes()))
	return stopProfiling()
}

// runOnline is the -online mode: generate a seeded stream of random
// jobs (arrivals from the workload generator, deadlines from the slack
// factor, tenants round-robin), drive it through the online engine,
// stream the JSONL trace, and print the aggregate report.
func runOnline(o options) error {
	procs := o.procs
	if procs <= 0 {
		procs = 8 // the online machine cannot be unbounded
	}
	arrivals, err := fastsched.GenerateArrivals(fastsched.ArrivalOptions{
		N:         o.online,
		Process:   o.arrival,
		Rate:      o.rate,
		BurstSize: o.burst,
		Seed:      o.seed,
	})
	if err != nil {
		return err
	}
	if o.tenants < 1 {
		return fmt.Errorf("-tenants must be at least 1, got %d", o.tenants)
	}
	if o.slack < 0 {
		return fmt.Errorf("-slack must be non-negative, got %v", o.slack)
	}
	jobs := make([]fastsched.OnlineJob, o.online)
	for i := range jobs {
		g, err := fastsched.RandomDAG(fastsched.RandomDAGOptions{
			V:            20 + (i*13)%21, // deterministic 20..40 node jobs
			Seed:         o.seed + int64(i)*1000003,
			MeanInDegree: 3,
		})
		if err != nil {
			return err
		}
		jobs[i] = fastsched.OnlineJob{
			ID:      fmt.Sprintf("job-%03d", i),
			Tenant:  fmt.Sprintf("tenant-%d", i%o.tenants),
			Weight:  1,
			Graph:   g,
			Arrival: arrivals[i],
		}
		if o.slack > 0 {
			jobs[i].Deadline = arrivals[i] + o.slack*g.TotalWork()/float64(procs)
		}
	}

	var faults *fastsched.FaultPlan
	if o.faultPlan != "" {
		f, err := os.Open(o.faultPlan)
		if err != nil {
			return err
		}
		faults, err = fastsched.ReadFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	var reg *fastsched.MetricsRegistry
	var sink fastsched.MetricsSink
	if o.metrics != "" {
		reg = fastsched.NewMetricsRegistry()
		sink = reg
	}

	rep, runErr := fastsched.RunOnline(jobs, fastsched.OnlineOptions{
		Procs:     procs,
		Policy:    o.policy,
		Algorithm: o.algo,
		Seed:      o.seed,
		Faults:    faults,
		Metrics:   sink,
	})
	if rep == nil {
		return runErr
	}
	// Even a machine-death run has a trace worth writing: finished jobs
	// carry their outcomes, unfinished ones are marked uncompleted.
	w, closeW, err := openSink(o.onlineOut)
	if err != nil {
		return err
	}
	err = fastsched.WriteOnlineJSONL(w, rep)
	if cerr := closeW(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, fastsched.FormatOnlineReport(rep))
	if err := dumpTelemetry(o, reg, nil); err != nil {
		return err
	}
	return runErr
}

func run(o options) error {
	if o.batchDir != "" && o.online > 0 {
		return fmt.Errorf("-batch and -online are mutually exclusive")
	}
	if o.flat && (o.batchDir != "" || o.online > 0 || o.demo) {
		return fmt.Errorf("-flat is exclusive with -batch, -online and -demo")
	}
	if o.batchDir != "" {
		return runBatch(o)
	}
	if o.online > 0 {
		return runOnline(o)
	}
	if o.flat {
		return runFlat(o)
	}
	var g *fastsched.Graph
	name := "graph"
	switch {
	case o.demo:
		g = example.Graph()
		name = "paper example"
	case o.in != "":
		var err error
		g, name, err = loadGraph(o)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -in <file> or -demo")
	}

	if o.dot {
		fmt.Print(fastsched.GraphDOT(g, name))
		return nil
	}

	stopProfiling, err := startProfiling(o)
	if err != nil {
		return err
	}
	defer stopProfiling()

	s, err := fastsched.NewScheduler(o.algo, o.seed)
	if err != nil {
		return err
	}

	var reg *fastsched.MetricsRegistry
	var traj *fastsched.SearchTrajectory
	if o.metrics != "" {
		reg = fastsched.NewMetricsRegistry()
		fastsched.EnableSchedulerMetrics(reg)
		defer fastsched.EnableSchedulerMetrics(nil)
	}
	if o.trajectory != "" {
		traj = fastsched.NewSearchTrajectory(0)
	}
	if reg != nil || traj != nil {
		if !fastsched.Instrument(s, reg, traj) && o.trajectory != "" {
			return fmt.Errorf("-trajectory is only supported by the FAST family, not %q", o.algo)
		}
	}

	var schedule *fastsched.Schedule
	if o.deadline > 0 {
		fs, ok := s.(finder)
		if !ok {
			return fmt.Errorf("-deadline is only supported by the FAST family, not %q", o.algo)
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.deadline)
		defer cancel()
		schedule, err = fs.Find(ctx, g, o.procs)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			fmt.Fprintf(os.Stderr, "fastsched: deadline %v expired; keeping the best schedule found so far\n", o.deadline)
		}
	} else {
		schedule, err = s.Schedule(g, o.procs)
		if err != nil {
			return err
		}
	}
	if err := fastsched.Validate(g, schedule); err != nil {
		return fmt.Errorf("produced schedule is invalid: %v", err)
	}

	l, err := fastsched.ComputeLevels(g)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d tasks, %d messages, CCR %.2f, CP length %.6g\n\n",
		name, g.NumNodes(), g.NumEdges(), g.CCR(), l.CPLen)
	fmt.Print(fastsched.Gantt(g, schedule, o.width))
	fmt.Printf("\nschedule length %.6g  processors used %d  speedup %.2f  efficiency %.2f\n",
		schedule.Length(), schedule.ProcsUsed(), schedule.Speedup(g), schedule.Efficiency(g))
	if o.table {
		fmt.Println()
		fmt.Print(fastsched.ScheduleTable(g, schedule))
	}
	if o.why {
		chain, err := fastsched.CriticalChain(g, schedule)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(fastsched.FormatChain(g, schedule, chain))
	}
	if o.svg != "" {
		if err := os.WriteFile(o.svg, []byte(fastsched.GanttSVG(g, schedule, 900)), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", o.svg)
	}
	if err := stopProfiling(); err != nil {
		return err
	}
	return dumpTelemetry(o, reg, traj)
}
