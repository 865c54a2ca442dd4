// Package etf implements the ETF (Earliest Task First) scheduling
// algorithm of Hwang, Chow, Anger and Lee (SIAM J. Computing, 1989).
//
// At every step ETF computes the earliest possible start time of every
// ready node on every processor and schedules the (node, processor)
// pair with the globally smallest start time; ties between nodes are
// broken in favour of the larger static level. Time complexity is
// O(p·v² + e).
package etf

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("etf: empty graph")

// Scheduler implements sched.Scheduler with the ETF algorithm.
type Scheduler struct{}

// New returns an ETF scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "ETF" }

// Schedule implements sched.Scheduler through the plan entry. procs
// <= 0 is treated as one processor per node ("more than enough").
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// static levels, so a plan compiled from a CSR alone serves too.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	if cg.CSR.NumNodes() == 0 {
		return nil, errEmpty
	}
	return listsched.SchedulePairs("ETF", cg.CSR, procs, better(cg.Static()))
}

// better prefers the candidate pair with the smaller start; ties go to
// the higher static level, then to the smaller node ID for determinism.
// Processor ties resolve to the lowest index because candidates are
// scanned in order.
func better(static []float64) func(best, cand listsched.Pair) bool {
	return func(best, cand listsched.Pair) bool {
		const eps = 1e-12
		switch {
		case cand.Start < best.Start-eps:
			return true
		case cand.Start > best.Start+eps:
			return false
		case static[cand.Node] != static[best.Node]:
			return static[cand.Node] > static[best.Node]
		default:
			return cand.Node < best.Node
		}
	}
}
