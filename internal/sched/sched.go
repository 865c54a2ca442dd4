// Package sched defines the schedule produced by the scheduling
// algorithms — the assignment of every task to a processor and a start
// time — together with validation against the source DAG, Gantt-chart
// rendering, and the metrics the paper reports (schedule length,
// processors used, speedup).
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"fastsched/internal/dag"
)

// Placement records where and when one task runs.
type Placement struct {
	Node   dag.NodeID
	Proc   int
	Start  float64
	Finish float64
}

// unassigned marks a node no Place has reached yet.
const unassigned = -1

// Schedule maps every node of a DAG onto processors and time slots. It
// is three dense arrays indexed by node — 20 bytes per node — and the
// per-processor view behind OnProc, Procs, ProcsUsed and Balance is
// derived on the first read after a change. The zero value is unusable;
// create schedules with New, or hand producer-filled arrays over with
// FromArrays.
//
// Reads are safe from several goroutines at once, the first one that
// builds the view included; Place is not.
type Schedule struct {
	Algorithm string    // name of the producing algorithm, for reports
	procCount int       // the producer's processor count; 0 when unknown
	proc      []int32   // processor of each node, unassigned when not placed
	start     []float64 // start time of each node
	finish    []float64 // finish time of each node
	view      atomic.Pointer[procView]
}

// Flat is the name the million-node path gives a Schedule.
type Flat = Schedule

// procView groups the assigned nodes by processor: procs[i]'s nodes are
// nodes[off[i]:off[i+1]], ordered by start time, then node ID. A view
// is never modified once built, so clones share it.
type procView struct {
	procs []int // distinct processors, ascending
	off   []int32
	nodes []int32
}

// New returns an empty schedule for a graph with v nodes.
func New(v int) *Schedule {
	s := &Schedule{proc: make([]int32, v), start: make([]float64, v), finish: make([]float64, v)}
	for i := range s.proc {
		s.proc[i] = unassigned
	}
	return s
}

// FromArrays returns the schedule that runs node n on processor proc[n]
// over [start[n], finish[n]), taking ownership of the three slices —
// the hand-over for producers that fill dense arrays themselves. procs
// is the producer's processor count, which validation enforces as a
// bound on proc; 0 means unknown.
func FromArrays(algorithm string, procs int, proc []int32, start, finish []float64) *Schedule {
	if len(start) != len(proc) || len(finish) != len(proc) {
		panic(fmt.Sprintf("sched: arrays sized %d/%d/%d", len(proc), len(start), len(finish)))
	}
	return &Schedule{Algorithm: algorithm, procCount: procs, proc: proc, start: start, finish: finish}
}

// NumNodes returns the number of slots (v of the source graph).
func (s *Schedule) NumNodes() int { return len(s.proc) }

// Place assigns node n to processor proc with the given start time and
// finish time. Re-placing a node moves it. proc must lie in
// [0, math.MaxInt32].
func (s *Schedule) Place(n dag.NodeID, proc int, start, finish float64) {
	if proc < 0 || proc > math.MaxInt32 {
		panic(fmt.Sprintf("sched: node %d placed on processor %d", n, proc))
	}
	s.proc[n], s.start[n], s.finish[n] = int32(proc), start, finish
	if s.view.Load() != nil {
		s.view.Store(nil)
	}
}

// Assigned reports whether node n has been placed.
func (s *Schedule) Assigned(n dag.NodeID) bool { return s.proc[n] >= 0 }

// Of returns the placement of node n. The node must be assigned.
func (s *Schedule) Of(n dag.NodeID) Placement {
	if !s.Assigned(n) {
		panic(fmt.Sprintf("sched: node %d not assigned", n))
	}
	return Placement{Node: n, Proc: int(s.proc[n]), Start: s.start[n], Finish: s.finish[n]}
}

// Start returns the start time of node n.
func (s *Schedule) Start(n dag.NodeID) float64 { return s.Of(n).Start }

// Finish returns the finish time of node n.
func (s *Schedule) Finish(n dag.NodeID) float64 { return s.Of(n).Finish }

// Proc returns the processor of node n.
func (s *Schedule) Proc(n dag.NodeID) int { return s.Of(n).Proc }

// OnProc returns the nodes assigned to processor p ordered by start
// time, then node ID, as a fresh slice.
func (s *Schedule) OnProc(p int) []dag.NodeID {
	vw := s.procView()
	i, ok := slices.BinarySearch(vw.procs, p)
	if !ok {
		return nil
	}
	seg := vw.nodes[vw.off[i]:vw.off[i+1]]
	out := make([]dag.NodeID, len(seg))
	for k, n := range seg {
		out[k] = dag.NodeID(n)
	}
	return out
}

// Procs returns the IDs of the processors that have at least one node,
// in increasing order, as a fresh slice.
func (s *Schedule) Procs() []int { return slices.Clone(s.procView().procs) }

// ProcsUsed returns the number of distinct processors with work — the
// "number of processors used" metric of the paper's tables.
func (s *Schedule) ProcsUsed() int { return len(s.procView().procs) }

// procView returns the per-processor view, building it on the first
// read after a change. Concurrent first readers may each build it; the
// views they store are equal.
func (s *Schedule) procView() *procView {
	if vw := s.view.Load(); vw != nil {
		return vw
	}
	vw := s.buildView()
	s.view.Store(vw)
	return vw
}

// buildView groups the assigned nodes by processor with a stable LSD
// radix sort — one counting pass per significant byte of the largest
// processor ID, so memory stays O(v) however sparse the IDs are — then
// sorts each processor's nodes by (start, node).
func (s *Schedule) buildView() *procView {
	var top int32
	in := make([]int32, 0, len(s.proc))
	for n, p := range s.proc {
		if p >= 0 {
			in = append(in, int32(n))
			top = max(top, p)
		}
	}
	out := make([]int32, len(in))
	for shift := 0; ; shift += 8 {
		var pos [256]int
		for _, n := range in {
			pos[byte(s.proc[n]>>shift)]++
		}
		sum := 0
		for d, c := range pos {
			pos[d], sum = sum, sum+c
		}
		for _, n := range in {
			d := byte(s.proc[n] >> shift)
			out[pos[d]] = n
			pos[d]++
		}
		in, out = out, in
		if top>>shift < 256 {
			break
		}
	}
	vw := &procView{nodes: in}
	for i, n := range in {
		if p := int(s.proc[n]); i == 0 || p != vw.procs[len(vw.procs)-1] {
			vw.procs = append(vw.procs, p)
			vw.off = append(vw.off, int32(i))
		}
	}
	vw.off = append(vw.off, int32(len(in)))
	// Plain comparisons rather than cmp.Compare's NaN ordering, which
	// costs a fifth of the sort: validation rejects NaN starts before it
	// builds the view.
	byStart := func(a, b int32) int {
		if sa, sb := s.start[a], s.start[b]; sa < sb {
			return -1
		} else if sa > sb {
			return 1
		}
		return cmp.Compare(a, b)
	}
	for i := range vw.procs {
		slices.SortFunc(vw.nodes[vw.off[i]:vw.off[i+1]], byStart)
	}
	return vw
}

// Length returns the schedule length (makespan): the maximum finish
// time over all assigned nodes. Unassigned nodes are ignored.
func (s *Schedule) Length() float64 {
	var max float64
	for n, t := range s.finish {
		if s.proc[n] >= 0 && t > max {
			max = t
		}
	}
	return max
}

// Balance returns the load-balance ratio max busy-time / mean
// busy-time across the producer's processors — idle ones count toward
// the mean — or across the processors used when the count is unknown:
// 1.0 is a perfectly even spread. Returns 1 for an empty schedule.
func (s *Schedule) Balance() float64 {
	vw := s.procView()
	busy := make([]float64, len(vw.procs))
	for n, p := range s.proc {
		if p >= 0 {
			i, _ := slices.BinarySearch(vw.procs, int(p))
			busy[i] += s.finish[n] - s.start[n]
		}
	}
	var total, most float64
	for _, b := range busy {
		total += b
		most = max(most, b)
	}
	if total == 0 {
		return 1
	}
	return most / (total / float64(max(s.procCount, len(vw.procs))))
}

// Speedup returns sequential work divided by schedule length.
func (s *Schedule) Speedup(g *dag.Graph) float64 {
	l := s.Length()
	if l == 0 {
		return 0
	}
	return g.TotalWork() / l
}

// Efficiency returns speedup divided by processors used.
func (s *Schedule) Efficiency(g *dag.Graph) float64 {
	p := s.ProcsUsed()
	if p == 0 {
		return 0
	}
	return s.Speedup(g) / float64(p)
}

// Clone returns a deep copy of the schedule. A view already built is
// shared, not rebuilt.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		Algorithm: s.Algorithm,
		procCount: s.procCount,
		proc:      slices.Clone(s.proc),
		start:     slices.Clone(s.start),
		finish:    slices.Clone(s.finish),
	}
	c.view.Store(s.view.Load())
	return c
}

// Validate checks that the schedule is a legal execution of g:
//
//  1. every node is assigned, to a processor in range;
//  2. every start and finish time is finite, and no start is negative;
//  3. finish = start + w(n) for every node;
//  4. no two tasks of positive duration overlap on a processor;
//  5. every node starts no earlier than each parent's finish time, plus
//     the edge's communication cost when parent and child are on
//     different processors.
func Validate(g *dag.Graph, s *Schedule) error { return ValidateDurations(g, s, nil) }

// ValidateDurations is Validate with per-node realized durations: dur[n]
// replaces g.Weight(n) in the duration check, while precedence and
// overlap are still checked against the schedule's own start/finish
// times. A nil dur falls back to the graph weights (plain Validate).
//
// The crash rescheduler needs this form: a spliced schedule's executed
// prefix ran with jittered durations, so its slots match the realized
// durations rather than the nominal node weights.
func ValidateDurations(g *dag.Graph, s *Schedule, dur []float64) error {
	return validate(dag.BuildCSR(g), s, dur)
}

// ValidateFlat is Validate against a CSR, for callers that hold one.
func ValidateFlat(c *dag.CSR, s *Flat) error { return validate(c, s, nil) }

// validate is the one validation core behind Validate,
// ValidateDurations and ValidateFlat. It runs in O(v log v + e): the
// exclusivity check walks each processor's tasks in start order and
// compares neighbours, never all pairs.
func validate(c *dag.CSR, s *Schedule, dur []float64) error {
	const eps = 1e-6
	v := c.NumNodes()
	if s.NumNodes() != v {
		return fmt.Errorf("sched: schedule sized for %d nodes, graph has %d", s.NumNodes(), v)
	}
	if dur != nil && len(dur) != v {
		return fmt.Errorf("sched: durations sized for %d nodes, graph has %d", len(dur), v)
	}
	for n := 0; n < v; n++ {
		st, fin := s.start[n], s.finish[n]
		switch p := s.proc[n]; {
		case p == unassigned:
			return fmt.Errorf("sched: node %d unassigned", n)
		case p < 0:
			return fmt.Errorf("sched: node %d on processor %d < 0", n, p)
		case s.procCount > 0 && int(p) >= s.procCount:
			return fmt.Errorf("sched: node %d on processor %d, have %d", n, p, s.procCount)
		case math.IsNaN(st) || math.IsInf(st, 0) || math.IsNaN(fin) || math.IsInf(fin, 0):
			return fmt.Errorf("sched: node %d runs over non-finite [%v, %v)", n, st, fin)
		case st < -eps:
			return fmt.Errorf("sched: node %d starts at %v < 0", n, st)
		}
		want := c.NodeW[n]
		if dur != nil {
			want = dur[n]
		}
		if !(math.Abs(fin-st-want) <= eps) {
			return fmt.Errorf("sched: node %d duration %v != expected %v", n, fin-st, want)
		}
	}
	// Zero-duration tasks occupy no processor time, so they can never
	// collide with a neighbour: listsched.Timeline admits a [x,x) slot
	// at any instant where no other task is strictly running, so the
	// exclusivity check covers only the tasks with positive duration
	// (the view orders each processor by start, so consecutive
	// positive-width pairs suffice).
	vw := s.procView()
	for i, p := range vw.procs {
		prev := int32(-1)
		for _, n := range vw.nodes[vw.off[i]:vw.off[i+1]] {
			if s.finish[n]-s.start[n] <= eps {
				continue
			}
			if prev >= 0 && s.start[n] < s.finish[prev]-eps {
				return fmt.Errorf("sched: overlap on PE %d: node %d [%v,%v) vs node %d [%v,%v)",
					p, prev, s.start[prev], s.finish[prev], n, s.start[n], s.finish[n])
			}
			prev = n
		}
	}
	for n := 0; n < v; n++ {
		for sl := c.PredOff[n]; sl < c.PredOff[n+1]; sl++ {
			from := c.PredFrom[sl]
			arrival := s.finish[from]
			if s.proc[from] != s.proc[n] {
				arrival += c.PredW[sl]
			}
			if s.start[n] < arrival-eps {
				return fmt.Errorf("sched: precedence violated on edge %d->%d: child starts %v, message arrives %v",
					from, n, s.start[n], arrival)
			}
		}
	}
	return nil
}
