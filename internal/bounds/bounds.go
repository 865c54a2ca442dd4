// Package bounds computes lower bounds on the schedule length of a
// task graph — the yardsticks experiments and tests measure heuristics
// against, and the pruning bounds the exact branch-and-bound solver
// (internal/optimal) cuts its search with. No schedule on any number of
// homogeneous processors can beat the processor-independent bounds
// (Dependence, CommAware); no schedule on the given processor count can
// beat the capacity bounds (Area, Fernandez).
package bounds

import (
	"math"
	"sort"

	"fastsched/internal/dag"
)

// Result holds the individual bounds and their maximum.
type Result struct {
	// Dependence is the computation-only critical path: even with all
	// communication zeroed, a dependence chain executes serially.
	Dependence float64
	// CommAware strengthens Dependence with a colocation argument: a
	// join node can zero the communication of parents only by sharing
	// their processor, and co-resident parents serialize. It is valid
	// on any processor count (see CommAwareEST).
	CommAware float64
	// Area is total work divided by the processor count (0 procs: 0).
	Area float64
	// Fernandez is the interval-capacity bound of Fernández & Bussell:
	// the smallest horizon T for which every time interval can hold the
	// work that precedence forces into it on procs processors. At least
	// as tight as Area; 0 when procs <= 0 or the graph is too large
	// (see fernandezMaxV).
	Fernandez float64
	// Combined is the tightest of the above.
	Combined float64
}

// fernandezMaxV caps the Fernández bound's O(v^3)-ish interval sweep;
// larger graphs skip it (the bound reports 0).
const fernandezMaxV = 160

// Compute returns the lower bounds for scheduling g on procs
// processors. procs <= 0 means unbounded (the capacity bounds vanish).
func Compute(g *dag.Graph, procs int) (Result, error) {
	c := dag.BuildCSR(g)
	l, err := dag.ComputeLevelsCSR(c)
	if err != nil {
		return Result{}, err
	}
	return ComputeCSR(c, l, procs), nil
}

// ComputeCSR is Compute on a CSR and its levels (a plan's CSR and
// Levels): every reduction walks the predecessor slots in stored order,
// so the result is bit-identical to Compute on the graph c was
// flattened from.
func ComputeCSR(c *dag.CSR, l *dag.Levels, procs int) Result {
	var r Result
	for _, s := range l.Static {
		if s > r.Dependence {
			r.Dependence = s
		}
	}
	est := CommAwareEST(c, l.Order)
	for n, e := range est {
		if b := e + l.Static[n]; b > r.CommAware {
			r.CommAware = b
		}
	}
	if procs > 0 {
		r.Area = c.TotalWork() / float64(procs)
		if c.NumNodes() <= fernandezMaxV {
			r.Fernandez = fernandez(c, l, est, procs,
				math.Max(math.Max(r.Dependence, r.CommAware), r.Area))
		}
	}
	r.Combined = math.Max(math.Max(r.Dependence, r.CommAware),
		math.Max(r.Area, r.Fernandez))
	return r
}

// Gap returns how far a schedule length sits above the combined bound,
// as a ratio (1.0 = optimal against the bound). A zero bound yields 1.
func (r Result) Gap(scheduleLength float64) float64 {
	if r.Combined <= 0 {
		return 1
	}
	return scheduleLength / r.Combined
}

// CommAwareEST returns, per node, a lower bound on its start time valid
// in every schedule on every processor count. The recurrence sharpens
// the communication-free forward pass with a pairwise case analysis on
// the two most binding parents a and b of each join node n: n shares a
// processor with neither (both communications are paid), with exactly
// one (the other's is paid), or with both (no communication, but the
// parents' executions serialize on that processor). The minimum over
// the cases is a sound start bound because every schedule realizes one
// of them; it strictly dominates the communication-free pass whenever
// paying for colocation beats paying for the message.
//
// order must be a topological order of c (e.g. dag.Levels.Order).
func CommAwareEST(c *dag.CSR, order []dag.NodeID) []float64 {
	est := make([]float64, c.NumNodes())
	for _, n := range order {
		est[n] = pairEST(c, est, n)
	}
	return est
}

// pairEST evaluates the comm-aware recurrence for one node given the
// est values of its predecessors.
func pairEST(c *dag.CSR, est []float64, n dag.NodeID) float64 {
	lo, hi := c.PredOff[n], c.PredOff[n+1]
	switch hi - lo {
	case 0:
		return 0
	case 1:
		// A single parent can always be colocated: only its completion
		// binds.
		p := c.PredFrom[lo]
		return est[p] + c.NodeW[p]
	}
	// floor: every parent must at least complete (colocated case), and
	// top-2 parents by arrival (completion + communication) drive the
	// pairwise analysis.
	var floor float64
	var a, b int32 // top-2 parents by arrival
	arrA, arrB := math.Inf(-1), math.Inf(-1)
	for s := lo; s < hi; s++ {
		p := c.PredFrom[s]
		done := est[p] + c.NodeW[p]
		if done > floor {
			floor = done
		}
		if arr := done + c.PredW[s]; arr > arrA {
			b, arrB = a, arrA
			a, arrA = p, arr
		} else if arr > arrB {
			b, arrB = p, arr
		}
	}
	sa, wa := est[a], c.NodeW[a]
	sb, wb := est[b], c.NodeW[b]
	ca, cb := sa+wa, sb+wb
	caseA := math.Max(ca, arrB) // n on a's processor, b remote
	caseB := math.Max(cb, arrA) // n on b's processor, a remote
	caseBoth := math.Min(       // a, b, n co-resident: a and b serialize
		math.Max(sb, ca)+wb, // a then b
		math.Max(sa, cb)+wa) // b then a
	pair := math.Min(caseBoth, math.Min(caseA, caseB))
	return math.Max(floor, pair)
}

// WaterFill returns the earliest time by which processors that are busy
// until the given ready times can have absorbed `work` additional units
// of computation — the per-state generalization of the area bound: with
// uneven ready times the machine is narrower than p-wide until the
// laggards free up. ready is not modified; scratch, if non-nil and
// large enough, avoids the internal allocation (the branch-and-bound
// solver passes a reusable buffer). Zero processors yield +Inf for
// positive work and 0 otherwise.
func WaterFill(ready []float64, work float64, scratch []float64) float64 {
	p := len(ready)
	if p == 0 {
		if work > 0 {
			return math.Inf(1)
		}
		return 0
	}
	var r []float64
	if cap(scratch) >= p {
		r = scratch[:p]
	} else {
		r = make([]float64, p)
	}
	copy(r, ready)
	if p <= 16 {
		insertionSort(r)
	} else {
		sort.Float64s(r)
	}
	sum := 0.0
	for k := 1; k <= p; k++ {
		sum += r[k-1]
		t := (work + sum) / float64(k)
		if k == p || t <= r[k] {
			if t < r[k-1] {
				t = r[k-1] // work == 0: the level is the lowest ready time
			}
			return t
		}
	}
	panic("bounds: water fill fell through") // unreachable: k == p always returns
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// fernandez computes the Fernández–Bussell interval-capacity bound: a
// horizon T is infeasible when some interval [t1, t2] is forced to hold
// more than procs·(t2−t1) work, where node n's forced contribution is
// the minimum overlap of its execution window [est(n), T − tail(n)]
// with the interval (tail(n) is the computation-only b-level, so the
// window is valid on any schedule meeting T). Feasibility is monotone
// in T, so the bound is found by bisection; the returned value is the
// largest T proven infeasible (hence a true lower bound), never less
// than the supplied floor lo.
func fernandez(c *dag.CSR, l *dag.Levels, est []float64, procs int, lo float64) float64 {
	if feasibleHorizon(c, l, est, procs, lo) {
		return lo
	}
	hi := lo + c.TotalWork()
	for i := 0; i < 64 && !feasibleHorizon(c, l, est, procs, hi); i++ {
		hi = 2*hi + 1
	}
	for i := 0; i < 60 && hi-lo > 1e-9*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if feasibleHorizon(c, l, est, procs, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// feasibleHorizon reports whether horizon T passes every interval
// capacity check. Candidate interval endpoints are the execution-window
// extremes of every node (leftmost and rightmost runs).
func feasibleHorizon(c *dag.CSR, l *dag.Levels, est []float64, procs int, T float64) bool {
	v := c.NumNodes()
	starts := make([]float64, 0, 2*v)
	ends := make([]float64, 0, 2*v)
	for n, w := range c.NodeW {
		e := est[n]
		ls := T - l.Static[n] // latest start meeting horizon T
		if ls < e-1e-9 {
			return false // some node cannot meet T at all
		}
		starts = append(starts, e, ls)
		ends = append(ends, e+w, ls+w)
	}
	cap64 := float64(procs)
	for _, t1 := range starts {
		for _, t2 := range ends {
			if t2 <= t1+1e-12 {
				continue
			}
			load := 0.0
			for n, w := range c.NodeW {
				load += minOverlap(est[n], T-l.Static[n], w, t1, t2)
			}
			if load > cap64*(t2-t1)+1e-9 {
				return false
			}
		}
	}
	return true
}

// minOverlap is the smallest overlap a w-long execution whose start is
// confined to [e, ls] can have with the interval [t1, t2]: overlap as
// the run slides right is unimodal, so the minimum sits at a window
// extreme.
func minOverlap(e, ls, w, t1, t2 float64) float64 {
	left := math.Max(0, math.Min(e+w, t2)-math.Max(e, t1))
	right := math.Max(0, math.Min(ls+w, t2)-math.Max(ls, t1))
	return math.Min(left, right)
}
