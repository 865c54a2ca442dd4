package fast

import (
	"errors"
	"fmt"
	"math"

	"fastsched/internal/dag"
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
	prio := buildPriorityOrder(levels, v, a)

	// No schedule uses more processors than it has nodes.
	P := procs
	if P <= 0 || P > v {
		P = v
	}
	proc, start, finish, ready := a.I32(v), a.F64(v), a.F64(v), a.F64(P)
	// Processors are first used in index order: 0..used−1 are used.
	used := int32(0)
	for _, n := range prio {
		// A node's data reach processor q when its last parent's result
		// does: the parent's finish, plus the message when it ran
		// elsewhere. The pass only appends, so a parent on q finished by
		// ready[q], and the start on q is
		//
		//	max(ready[q], q == m1p ? m2 : m1)
		//
		// where m1 is the latest arrival with every message paid, m1p
		// the processor of the first parent reaching it, and m2 the
		// latest paid arrival over parents on other processors than m1p.
		var m1, m2 float64
		m1p := int32(-1)
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			fp := proc[c.PredFrom[s]]
			arr := finish[c.PredFrom[s]] + c.PredW[s]
			if arr > m1 || m1p < 0 {
				if m1p >= 0 && fp != m1p && m1 > m2 {
					m2 = m1
				}
				m1, m1p = arr, fp
			} else if fp != m1p && arr > m2 {
				m2 = arr
			}
		}
		startOn := func(q int32) float64 {
			if q == m1p {
				return max(ready[q], m2)
			}
			return max(ready[q], m1)
		}

		var best int32
		var bestStart float64
		if int(used) < P {
			// The parents' processors all lie below the empty one, so
			// the lowest index wins a tie by the second comparison.
			best, bestStart = used, startOn(used)
			for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
				q := proc[c.PredFrom[s]]
				if t := startOn(q); t < bestStart || t == bestStart && q < best {
					best, bestStart = q, t
				}
			}
			if best == used {
				used++
			}
		} else {
			best, bestStart = 0, startOn(0)
			for q := int32(1); q < int32(P); q++ {
				if t := startOn(q); t < bestStart {
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

// buildPriorityOrder returns the nodes sorted by decreasing b-level,
// ties broken by topological position (then ID, though topological
// positions are already unique). Counting-free: we sort indices with a
// bottom-up merge over int32 to avoid sort.Slice's interface overhead
// on 10⁶ elements — and to keep the comparison total and deterministic.
func buildPriorityOrder(l *dag.CompactLevels, v int, a *dag.ScaleArena) []int32 {
	pos := a.I32(v)
	for i, n := range l.Order {
		pos[n] = int32(i)
	}
	prio := a.I32(v)
	copy(prio, l.Order)
	less := func(x, y int32) bool {
		if l.BLevel[x] != l.BLevel[y] {
			return l.BLevel[x] > l.BLevel[y]
		}
		return pos[x] < pos[y]
	}
	// Bottom-up merge sort, stable. Starting from l.Order (a valid
	// topological order) makes equal-b-level runs already pos-ordered,
	// but stability guarantees the tie-break regardless.
	buf := a.I32(v)
	for width := 1; width < v; width *= 2 {
		for lo := 0; lo < v; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > v {
				mid = v
			}
			if hi > v {
				hi = v
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(prio[j], prio[i]) {
					buf[k] = prio[j]
					j++
				} else {
					buf[k] = prio[i]
					i++
				}
				k++
			}
			copy(buf[k:hi], prio[i:mid])
			copy(buf[k+mid-i:hi], prio[j:hi])
		}
		prio, buf = buf, prio
	}
	a.ReleaseI32(pos)
	a.ReleaseI32(buf)
	return prio
}
