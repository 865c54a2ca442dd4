// Package listsched provides the machinery shared by the list-scheduling
// algorithms in this repository: the one pricing kernel of data
// arrival, in its append-only form (Arrivals, which prices FAST's
// phase 1, fast-hier, HLFET, ETF, DLS and the online dispatcher) and
// its insertion form (DAT, which prices MD, MCP, DCP, ISH and DSC's
// merges); the pair-selection loop ETF and DLS share
// (SchedulePairs); the t- and b-levels of a partial schedule MD and DCP
// recompute at every step (PartialLevels); and per-processor timelines
// for insertion-based earliest-slot placement (MD, MCP, DCP and FAST's
// insertion ablation). Everything reads the plan's CSR.
package listsched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fastsched/internal/dag"
	"fastsched/internal/invariant"
)

// ErrOverlap is returned by TryInsert when the requested interval
// collides with an occupied slot.
var ErrOverlap = errors.New("listsched: insertion overlaps an occupied slot")

// slot is one occupied interval on a processor timeline.
type slot struct {
	Node          dag.NodeID
	Start, Finish float64
}

// Timeline is the occupied intervals of a single processor, sorted by
// start time. The zero value is an empty, usable timeline.
type Timeline struct {
	slots []slot
	// prefMax[i] is the maximum Finish over slots[0..i] — the "previous
	// end" a gap walk starting after slot i resumes from. Maintained by
	// TryInsert (which already pays O(n) for the slice shift) so
	// EarliestStart can skip the prefix of slots that start too early to
	// ever fit the task.
	prefMax []float64
}

// ReadyTime returns the latest finish of any task on the processor (0
// for an idle processor). That is not always the last slot's finish: a
// zero-length slot that starts within TryInsert's 1e-9 tolerance before
// its predecessor's finish sorts after it.
func (t *Timeline) ReadyTime() float64 {
	if len(t.prefMax) == 0 {
		return 0
	}
	return t.prefMax[len(t.prefMax)-1]
}

// Len returns the number of tasks on the timeline.
func (t *Timeline) Len() int { return len(t.slots) }

// EarliestStart returns the earliest time >= dat at which a task of the
// given duration fits, using insertion: interior idle gaps are
// considered before the end of the timeline.
//
// The gap walk starts at the first slot the task could possibly
// precede, found by binary search instead of scanning from the front:
// a slot with Start < dat+duration-1e-12 can never satisfy the fit
// test gapStart+duration <= Start+1e-12 (gapStart is at least dat), so
// skipping the prefix cannot change which slot accepts. The skipped
// prefix's running max finish is read from prefMax, so the returned
// start — a max over exactly the same values the full walk folds — is
// bit-identical to the linear scan (pinned by the differential test).
func (t *Timeline) EarliestStart(dat, duration float64) float64 {
	j := sort.Search(len(t.slots), func(i int) bool {
		return t.slots[i].Start >= dat+duration-1e-12
	})
	prevEnd := 0.0
	if j > 0 {
		prevEnd = t.prefMax[j-1]
	}
	for _, s := range t.slots[j:] {
		gapStart := math.Max(prevEnd, dat)
		if gapStart+duration <= s.Start+1e-12 {
			if m := enabled.Load(); m != nil {
				m.InsertGapHits.Inc()
			}
			return gapStart
		}
		prevEnd = math.Max(prevEnd, s.Finish)
	}
	if m := enabled.Load(); m != nil {
		m.InsertAppends.Inc()
	}
	return math.Max(prevEnd, dat)
}

// TryInsert places node n at [start, start+duration) and returns
// ErrOverlap (wrapped with the colliding interval) when the slot is
// occupied, leaving the timeline unchanged. Callers feeding externally
// supplied placements use this form; the internal list schedulers use
// Insert, whose overlap would be an algorithmic bug.
//
// A zero-duration slot occupies no time: it never blocks an insertion
// starting at its point. The position scan therefore skips every slot
// that *ends* at or before the new start (with the same 1e-9 tolerance
// as the overlap checks) — a zero-weight task's [x,x) slot sorts ahead
// of a neighbour starting at x instead of colliding with it, which is
// how EarliestStart already priced that gap.
func (t *Timeline) TryInsert(n dag.NodeID, start, duration float64) error {
	finish := start + duration
	i := 0
	for i < len(t.slots) && t.slots[i].Finish <= start+1e-9 {
		i++
	}
	// Every slot before i ends at or before start, so the only possible
	// collision is with the slot at i spilling into [start, finish).
	if i < len(t.slots) && t.slots[i].Start < finish-1e-9 {
		nx := t.slots[i]
		return fmt.Errorf("%w: node %d [%v,%v) ahead of node %d [%v,%v)",
			ErrOverlap, n, start, finish, nx.Node, nx.Start, nx.Finish)
	}
	t.slots = append(t.slots, slot{})
	copy(t.slots[i+1:], t.slots[i:])
	t.slots[i] = slot{Node: n, Start: start, Finish: finish}
	t.prefMax = append(t.prefMax, 0)
	t.refreshPrefMax(i)
	return nil
}

// refreshPrefMax recomputes the running max finish from slot i onward;
// entries before i are unaffected by an edit at i.
func (t *Timeline) refreshPrefMax(i int) {
	for ; i < len(t.slots); i++ {
		m := t.slots[i].Finish
		if i > 0 && t.prefMax[i-1] > m {
			m = t.prefMax[i-1]
		}
		t.prefMax[i] = m
	}
}

// Insert places node n at [start, start+duration). The interval must be
// free: the list schedulers only insert at starts they computed from
// the same timeline, so an overlap is an algorithmic bug and trips the
// invariant check rather than returning an error.
func (t *Timeline) Insert(n dag.NodeID, start, duration float64) {
	err := t.TryInsert(n, start, duration)
	invariant.Assertf(err == nil, "%v", err)
}

// Machine is a growable set of processor timelines. When bounded is
// true, the machine never grows beyond its initial size; otherwise
// FreshProc can mint new processors on demand (the unbounded model of
// MD and DSC).
type Machine struct {
	timelines []*Timeline
	bounded   bool
}

// NewMachine returns a machine with procs processors; procs <= 0 yields
// an unbounded machine that starts with one processor.
func NewMachine(procs int) *Machine {
	if procs <= 0 {
		return &Machine{timelines: []*Timeline{{}}, bounded: false}
	}
	m := &Machine{timelines: make([]*Timeline, procs), bounded: true}
	for i := range m.timelines {
		m.timelines[i] = &Timeline{}
	}
	return m
}

// NumProcs returns the current number of processors.
func (m *Machine) NumProcs() int { return len(m.timelines) }

// Proc returns processor p's timeline.
func (m *Machine) Proc(p int) *Timeline { return m.timelines[p] }

// FreshProc returns the index of an empty processor, growing the machine
// if it is unbounded and every processor is busy. It returns -1 when the
// machine is bounded and has no empty processor.
func (m *Machine) FreshProc() int {
	for i, t := range m.timelines {
		if t.Len() == 0 {
			return i
		}
	}
	if m.bounded {
		return -1
	}
	m.timelines = append(m.timelines, &Timeline{})
	return len(m.timelines) - 1
}
