// Package casch reproduces the measurement pipeline of the paper's
// CASCH tool: take a task graph, schedule it with a chosen algorithm,
// then *execute* the scheduled program on the simulated machine and
// report execution time, processors used, and the scheduler's own
// running time — the three quantities of every table in §5.
package casch

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/dcp"
	"fastsched/internal/dls"
	"fastsched/internal/dsc"
	"fastsched/internal/etf"
	"fastsched/internal/ez"
	"fastsched/internal/fast"
	"fastsched/internal/hlfet"
	"fastsched/internal/ish"
	"fastsched/internal/lc"
	"fastsched/internal/mapping"
	"fastsched/internal/mcp"
	"fastsched/internal/md"
	"fastsched/internal/mh"
	"fastsched/internal/optimal"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

// Result is the outcome of one generate→schedule→execute pipeline run.
type Result struct {
	Algorithm      string
	V, E           int
	ScheduleLength float64       // the static makespan the scheduler predicts
	ProcsUsed      int           // distinct processors with work
	ExecTime       float64       // simulated execution time on the machine model
	SchedulingTime time.Duration // wall-clock cost of the Schedule() call
	Speedup        float64       // sequential work / simulated execution time
}

// Run schedules g on procs processors with s, executes the result under
// machine, and collects the metrics. procs <= 0 requests an unbounded
// processor set.
func Run(g *dag.Graph, s sched.Scheduler, procs int, machine sim.Config) (*Result, error) {
	begin := time.Now()
	schedule, err := s.Schedule(g, procs)
	elapsed := time.Since(begin)
	if err != nil {
		return nil, fmt.Errorf("casch: %s: %w", s.Name(), err)
	}
	if err := sched.Validate(g, schedule); err != nil {
		return nil, fmt.Errorf("casch: %s produced an invalid schedule: %w", s.Name(), err)
	}
	report, err := sim.Run(g, schedule, machine)
	if err != nil {
		return nil, fmt.Errorf("casch: %s: execution failed: %w", s.Name(), err)
	}
	r := &Result{
		Algorithm:      s.Name(),
		V:              g.NumNodes(),
		E:              g.NumEdges(),
		ScheduleLength: schedule.Length(),
		ProcsUsed:      schedule.ProcsUsed(),
		ExecTime:       report.Time,
		SchedulingTime: elapsed,
	}
	if report.Time > 0 {
		r.Speedup = g.TotalWork() / report.Time
	}
	return r, nil
}

// planFinder is a scheduler whose plan entry takes a context: the FAST
// family.
type planFinder interface {
	FindCompiled(ctx context.Context, cg *plan.CompiledGraph, procs int) (*sched.Schedule, error)
}

// planScheduler is a scheduler with a plan entry.
type planScheduler interface {
	ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error)
}

// ScheduleCompiled is the one place that picks a scheduler's plan entry
// or its graph entry. With a non-nil ctx, a scheduler with FindCompiled
// runs under it. Otherwise a non-nil ctx is checked once, so a
// cancelled request runs nothing, and s runs its ScheduleCompiled when
// it has one, else s.Schedule(cg.Graph, procs). A nil ctx leaves the
// scheduler's own configuration, such as FAST's Options.Context, in
// charge. Schedulers without a plan entry need a plan compiled from a
// graph.
func ScheduleCompiled(ctx context.Context, s sched.Scheduler, cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	if f, ok := s.(planFinder); ok && ctx != nil {
		return f.FindCompiled(ctx, cg, procs)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if ps, ok := s.(planScheduler); ok {
		return ps.ScheduleCompiled(cg, procs)
	}
	return s.Schedule(cg.Graph, procs)
}

// NewScheduler constructs a scheduler by its table name, as used by the
// command-line tools. Recognized names: the paper's five (fast, dsc,
// md, etf, dls), the FAST variants (fast-initial, pfast, fast-hier),
// and the extended classical suite (hlfet, mcp, lc, ez).
// Case-sensitive, lower case.
func NewScheduler(name string, seed int64) (sched.Scheduler, error) {
	switch name {
	case "fast":
		return fast.New(fast.Options{Seed: seed}), nil
	case "fast-initial":
		return fast.New(fast.Options{NoSearch: true}), nil
	case "pfast":
		return fast.New(fast.Options{Seed: seed, Parallelism: 4}), nil
	case "fast-hier":
		return fast.NewHierarchical(fast.HierOptions{}), nil
	case "dsc":
		return dsc.New(), nil
	case "md":
		return md.New(), nil
	case "etf":
		return etf.New(), nil
	case "dls":
		return dls.New(), nil
	case "hlfet":
		return hlfet.New(), nil
	case "mcp":
		return mcp.New(), nil
	case "lc":
		return lc.New(), nil
	case "ez":
		return ez.New(), nil
	case "dsc-map":
		return &mapping.Bounded{Inner: dsc.New(), Strategy: mapping.LPT}, nil
	case "lc-map":
		return &mapping.Bounded{Inner: lc.New(), Strategy: mapping.LPT}, nil
	case "ish":
		return ish.New(), nil
	case "dcp":
		return dcp.New(), nil
	case "opt":
		return optimal.New(), nil
	case "mh":
		// MH needs an interconnect model; the registry default is an
		// 8-wide mesh with a light per-hop cost.
		return mh.New(sim.Mesh{Cols: 8, PerHop: 2}), nil
	default:
		return nil, fmt.Errorf("casch: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
}

// AlgorithmNames lists the names NewScheduler accepts, sorted.
func AlgorithmNames() []string {
	names := []string{
		"fast", "fast-initial", "fast-hier", "pfast", "dsc", "md", "etf", "dls",
		"hlfet", "mcp", "lc", "ez", "dsc-map", "lc-map", "ish", "dcp", "opt", "mh",
	}
	sort.Strings(names)
	return names
}

// ExtendedSchedulers returns the paper's five algorithms followed by
// the extended classical suite (HLFET, MCP, LC, EZ, ISH, DCP) — the
// wider comparison the authors' companion survey ([1] in the paper)
// performs.
func ExtendedSchedulers(seed int64) []sched.Scheduler {
	return append(PaperSchedulers(seed),
		hlfet.New(), mcp.New(), lc.New(), ez.New(), ish.New(), dcp.New())
}

// Unbounded reports whether the named algorithm assumes an unlimited
// processor set (the clustering family, MD, and DCP).
func Unbounded(name string) bool {
	switch name {
	case "DSC", "MD", "LC", "EZ", "DCP":
		return true
	}
	return false
}

// PaperSchedulers returns the five algorithms in the row order of the
// paper's tables: FAST, DSC, MD, ETF, DLS. seed drives FAST's search.
func PaperSchedulers(seed int64) []sched.Scheduler {
	return []sched.Scheduler{
		fast.New(fast.Options{Seed: seed}),
		dsc.New(),
		md.New(),
		etf.New(),
		dls.New(),
	}
}
