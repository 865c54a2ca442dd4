// Package dls implements the DLS (Dynamic Level Scheduling) algorithm
// of Sih and Lee (IEEE TPDS, 1993).
//
// DLS defines the dynamic level of a (node, processor) pair as the
// node's static b-level minus its earliest start time on that processor
// and, at every step, schedules the ready pair with the largest dynamic
// level. Time complexity is O(p·e·v) in general, and O(p·v² + e) with
// the append-only start used here: each node's data arrival is swept
// once, when it becomes ready, and then prices every processor in O(1).
package dls

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("dls: empty graph")

// Scheduler implements sched.Scheduler with the DLS algorithm.
type Scheduler struct{}

// New returns a DLS scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "DLS" }

// Schedule implements sched.Scheduler through the plan entry. procs
// <= 0 is treated as one processor per node.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// static levels, so a plan compiled from a CSR alone serves too.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	if cg.CSR.NumNodes() == 0 {
		return nil, errEmpty
	}
	return listsched.SchedulePairs("DLS", cg.CSR, procs, betterDL(cg.Static()))
}

// betterDL prefers the candidate pair with the larger dynamic level,
// static level minus start; ties go to the smaller node ID (and the
// lowest processor index via scan order) for determinism.
func betterDL(static []float64) func(best, cand listsched.Pair) bool {
	return func(best, cand listsched.Pair) bool {
		const eps = 1e-12
		bestDL, dl := static[best.Node]-best.Start, static[cand.Node]-cand.Start
		switch {
		case dl > bestDL+eps:
			return true
		case dl < bestDL-eps:
			return false
		default:
			return cand.Node < best.Node
		}
	}
}
