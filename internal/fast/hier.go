package fast

import (
	"errors"
	"fmt"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// HierOptions configures the hierarchical FAST scheduler.
type HierOptions struct {
	// Seed is unread: the placement pass makes no random choice. It
	// stays because the benchmark module sets it.
	Seed int64
	// Metrics is unread: the pass emits no metrics. It stays, with
	// Instrument, because the benchmark module sets it.
	Metrics obs.Sink
	// Arena, when non-nil, supplies every O(v + e) dense array the pass
	// needs — levels, priority order, processor ready times and the
	// schedule's own arrays — so a warm re-run after Arena.Reset()
	// allocates only the schedule header. An arena-backed scheduler is
	// single-goroutine and its returned schedules are invalidated by the
	// next Reset; with a nil Arena the scheduler is safe for concurrent
	// use.
	Arena *dag.ScaleArena
}

// Hierarchical is the million-node scheduler behind the registry name
// fast-hier. It runs no FAST search: over 10⁶ nodes MAXSTEP random
// transfers explore nothing, and what decides the schedule is the
// placement pass of FAST's phase 1 (paper §4.2). ScheduleCSR is that
// pass over the b-level priority order: it walks the nodes in
// decreasing b-level order, ties broken by topological position, and
// puts each on the candidate processor where it starts earliest, the
// lowest index winning ties. The candidates are FAST's: the processors
// of the node's parents plus the lowest-numbered empty processor while
// one remains, and every processor once none does.
//
// Restricting the candidates changes only tie-breaks. An empty
// processor starts a node at its latest parent arrival with every
// message paid, and a used processor that holds none of its parents
// cannot start it earlier; so every node starts at the earliest time
// any processor offers it.
//
// The pass is sequential with fixed tie-breaks, so its output is a pure
// function of the CSR, bit-identical under any GOMAXPROCS. It is an
// append-only list schedule in which every start equals a processor's
// previous finish or a parent's arrival, so any blocking chain charges
// each node and edge at most once and the makespan stays ≤ TotalWork +
// TotalComm.
type Hierarchical struct {
	opts HierOptions

	// Reusable levels shell for arena runs (opts.Arena != nil only;
	// nil-arena scheduling never touches it and stays concurrency-safe).
	levels dag.CompactLevels
}

// NewHierarchical returns a hierarchical FAST scheduler.
func NewHierarchical(opts HierOptions) *Hierarchical { return &Hierarchical{opts: opts} }

// Name implements sched.Scheduler.
func (h *Hierarchical) Name() string { return "FAST-H" }

// Instrument records a metrics sink (the command-line tools' hook). The
// pass emits no metrics, so the sink is unread.
func (h *Hierarchical) Instrument(sink obs.Sink, _ *obs.Trajectory) {
	h.opts.Metrics = sink
}

// Schedule implements sched.Scheduler: it compiles g, which validates
// it, and runs the plan entry. procs <= 0 means one processor per node.
func (h *Hierarchical) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return nil, errors.New("fast: empty graph")
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, err
	}
	return h.ScheduleCompiled(cg, procs)
}

// ScheduleCompiled runs against a pre-compiled graph: ScheduleCSR on
// the plan's CSR, a pure function of it.
func (h *Hierarchical) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	return h.ScheduleCSR(cg.CSR, procs)
}

// ScheduleCSR is the native large-graph entry point: CSR in, dense
// schedule out, no *dag.Graph materialized. It costs O(deg) per node
// while an empty processor remains and O(deg + P) after: O(e + v·P) on
// a bounded machine and O(e) when procs <= 0, which means one processor
// per node. The schedule then reports the processors it used as its
// processor count, so Balance is taken over them. A finish time that
// overflows to +Inf is an error matching dag.ErrBadWeight.
func (h *Hierarchical) ScheduleCSR(c *dag.CSR, procs int) (*sched.Flat, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, errors.New("fast: empty graph")
	}
	a := h.opts.Arena

	var lvlShell *dag.CompactLevels
	if a != nil {
		lvlShell = &h.levels
	}
	levels, err := c.ComputeLevelsCompactArena(lvlShell, a)
	if err != nil {
		return nil, err
	}
	// b-level(parent) ≥ b-level(child) for non-negative weights, so with
	// the topological tie-break the priority order is itself a
	// topological order: every parent is placed before its children.
	prio := dag.PriorityOrder(levels.BLevel, levels.Order, a)

	// No schedule uses more processors than it has nodes.
	P := procs
	if P <= 0 || P > v {
		P = v
	}
	proc, start, finish, ready := a.I32(v), a.F64(v), a.F64(v), a.F64(P)
	// Processors are first used in index order: 0..used−1 are used.
	used := int32(0)
	for _, n := range prio {
		// The three-term decomposition prices each candidate in O(1).
		arr := listsched.ArrivalsOf(c, n, proc, finish)
		var best int32
		var bestStart float64
		if int(used) < P {
			// The parents' processors all lie below the empty one, so
			// the lowest index wins a tie by the second comparison.
			best, bestStart = used, arr.StartOn(int(used), ready[used])
			for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
				q := proc[c.PredFrom[s]]
				if t := arr.StartOn(int(q), ready[q]); t < bestStart || t == bestStart && q < best {
					best, bestStart = q, t
				}
			}
			if best == used {
				used++
			}
		} else {
			best, bestStart = 0, arr.StartOn(0, ready[0])
			for q := int32(1); q < int32(P); q++ {
				if t := arr.StartOn(int(q), ready[q]); t < bestStart {
					best, bestStart = q, t
				}
			}
		}
		f := bestStart + c.NodeW[n]
		if f > math.MaxFloat64 {
			return nil, fmt.Errorf("fast: hierarchical: node %d finishes at %v: %w", n, f, dag.ErrBadWeight)
		}
		proc[n], start[n], finish[n] = best, bestStart, f
		ready[best] = f
	}
	a.ReleaseI32(prio)
	a.ReleaseF64(ready)
	if procs <= 0 {
		procs = int(used)
	}
	return sched.FromArrays(h.Name(), procs, proc, start, finish), nil
}
