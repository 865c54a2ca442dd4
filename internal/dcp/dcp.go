// Package dcp implements DCP (Dynamic Critical Path scheduling; Kwok &
// Ahmad, IEEE TPDS 1996) — the FAST authors' own higher-effort
// algorithm from the same year, included here as the natural
// quality-oriented counterpart in the comparison suite.
//
// DCP tracks the critical path of the *partially scheduled* graph: at
// every step it recomputes the absolute earliest and latest start times
// (AEST/ALST, with communication zeroed between co-located tasks and
// scheduled tasks pinned at their start times), selects the ready node
// with the least mobility (ALST − AEST), and places it with insertion
// on the candidate processor that minimizes a one-step lookahead — the
// node's start time plus the estimated start time of its critical
// child on the same processor. DCP assumes an unbounded processor set;
// per-step recomputation makes it O(v^3) like MD.
package dcp

import (
	"errors"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

var errEmpty = errors.New("dcp: empty graph")

// Scheduler implements sched.Scheduler with the DCP algorithm.
type Scheduler struct{}

// New returns a DCP scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "DCP" }

// Schedule implements sched.Scheduler through the plan entry. DCP is
// defined for an unbounded processor set; positive procs caps the
// machine like MD's bounded fallback, procs <= 0 gives the published
// behaviour.
func (s *Scheduler) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	return plan.Schedule(g, procs, errEmpty, s.ScheduleCompiled)
}

// ScheduleCompiled schedules against a plan, reading only its CSR and
// topological order.
func (*Scheduler) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	c, order := cg.CSR, cg.Levels.Order
	v := c.NumNodes()
	if v == 0 {
		return nil, errEmpty
	}
	m := listsched.NewMachine(procs)
	proc := make([]int32, v) // -1 while unscheduled
	start := make([]float64, v)
	finish := make([]float64, v)
	unschedParents := make([]int32, v)
	for n := range v {
		proc[n] = -1
		unschedParents[n] = c.PredOff[n+1] - c.PredOff[n]
	}
	aest := make([]float64, v)
	alst := make([]float64, v)
	var cand []int // cand[q] == step+1: processor q is a candidate now

	for step := range v {
		cp := listsched.PartialLevels(c, order, proc, start, aest, alst)
		for n, b := range alst {
			alst[n] = cp - b
		}

		// Ready node with the smallest mobility; ties to smaller ALST
		// (earlier on the dynamic critical path), then smaller ID.
		best := -1
		bestMob, bestALST := math.Inf(1), math.Inf(1)
		for n := range v {
			if proc[n] >= 0 || unschedParents[n] > 0 {
				continue
			}
			mob := alst[n] - aest[n]
			if mob < bestMob-1e-9 || (mob < bestMob+1e-9 && alst[n] < bestALST-1e-9) {
				best, bestMob, bestALST = n, mob, alst[n]
			}
		}
		if best < 0 {
			return nil, errors.New("dcp: no ready node (cyclic graph?)")
		}

		// Critical child: the unscheduled child with the least mobility
		// (the one whose start DCP's lookahead protects).
		cc := int32(-1)
		ccMob := math.Inf(1)
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			to := c.SuccTo[s]
			if proc[to] >= 0 {
				continue
			}
			if mob := alst[to] - aest[to]; mob < ccMob-1e-9 {
				cc, ccMob = to, mob
			}
		}

		w := c.NodeW[best]
		// Candidate processors: those holding parents of best, plus the
		// lowest empty processor while one remains, else every processor
		// (the bounded-machine rule FAST's phase 1 follows).
		fresh := m.FreshProc()
		for len(cand) < m.NumProcs() {
			cand = append(cand, 0)
		}
		mark := step + 1
		for s := c.PredOff[best]; s < c.PredOff[best+1]; s++ {
			cand[proc[c.PredFrom[s]]] = mark
		}
		if fresh >= 0 {
			cand[fresh] = mark
		}
		all := fresh < 0
		dat := listsched.DATOf(c, best, proc, finish)
		p, st, score := -1, 0.0, math.Inf(1)
		for q := 0; q < m.NumProcs(); q++ {
			if !all && cand[q] != mark {
				continue
			}
			s := m.Proc(q).EarliestStart(dat.On(q), w)
			sc := s
			if cc >= 0 {
				sc += ccStart(c, proc, finish, aest, cc, q, int32(best), s+w)
			}
			if sc < score-1e-9 || (sc < score+1e-9 && (p == -1 || q < p)) {
				p, st, score = q, s, sc
			}
		}
		m.Proc(p).Insert(dag.NodeID(best), st, w)
		proc[best], start[best], finish[best] = int32(p), st, st+w
		for s := c.SuccOff[best]; s < c.SuccOff[best+1]; s++ {
			unschedParents[c.SuccTo[s]]--
		}
	}
	return sched.FromArrays("DCP", 0, proc, start, finish), nil
}

// ccStart estimates the critical child's start time if it were placed
// on processor p, given that parent `placed` finishes there at
// placedFinish: scheduled parents contribute real arrival times,
// unscheduled ones their AEST-based estimates.
func ccStart(c *dag.CSR, proc []int32, finish, aest []float64,
	cc int32, p int, placed int32, placedFinish float64) float64 {
	est := 0.0
	for s := c.PredOff[cc]; s < c.PredOff[cc+1]; s++ {
		from := c.PredFrom[s]
		var arr float64
		switch {
		case from == placed:
			arr = placedFinish // co-located with the child: comm zeroed
		case proc[from] >= 0:
			arr = finish[from]
			if int(proc[from]) != p {
				arr += c.PredW[s]
			}
		default:
			// Unscheduled parent: assume it keeps its estimated start and
			// pays full communication.
			arr = aest[from] + c.NodeW[from] + c.PredW[s]
		}
		if arr > est {
			est = arr
		}
	}
	return est
}
