// Package mapping implements the cluster-to-processor mapping step
// that clustering schedulers (DSC, LC, EZ) need on a real machine: they
// produce O(v) virtual clusters — the paper's tables show DSC using
// "an unrealistic number of processors" — and a physical machine has p.
// The standard post-pass (as in Yang & Gerasoulis's PYRROS system)
// merges clusters onto the p processors and re-derives the schedule.
package mapping

import (
	"errors"
	"sort"

	"fastsched/internal/cluster"
	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// Map folds the clustering implied by schedule s (its processor groups)
// onto at most procs physical processors and re-evaluates the schedule
// against the plan, reading only its CSR and b-levels. Clusters are
// packed in decreasing total-work order onto the least-loaded processor
// (longest-processing-time bin packing). A schedule already within the
// budget is returned unchanged.
func Map(cg *plan.CompiledGraph, s *sched.Schedule, procs int) (*sched.Schedule, error) {
	if procs < 1 {
		return nil, errors.New("mapping: need at least one processor")
	}
	if s.ProcsUsed() <= procs {
		return s, nil
	}
	c, l := cg.CSR, cg.Levels

	clusters := s.Procs()
	type loadedCluster struct {
		i    int // index into clusters
		work float64
	}
	lcs := make([]loadedCluster, 0, len(clusters))
	for i, k := range clusters {
		var work float64
		for _, n := range s.OnProc(k) {
			work += c.NodeW[n]
		}
		lcs = append(lcs, loadedCluster{i, work})
	}
	sort.SliceStable(lcs, func(i, j int) bool {
		if lcs[i].work != lcs[j].work {
			return lcs[i].work > lcs[j].work
		}
		return lcs[i].i < lcs[j].i
	})
	target := make([]int, len(clusters)) // clusters[i] -> processor
	load := make([]float64, procs)
	for _, lc := range lcs {
		least := 0
		for p := 1; p < procs; p++ {
			if load[p] < load[least] {
				least = p
			}
		}
		target[lc.i] = least
		load[least] += lc.work
	}

	assign := make([]int, c.NumNodes())
	for i, k := range clusters {
		for _, n := range s.OnProc(k) {
			assign[n] = target[i]
		}
	}
	out := cluster.Evaluate(c, l.PriorityOrder(l.BLevel), assign)
	out.Algorithm = s.Algorithm + "+map"
	return out, nil
}

// Clusterer is an unbounded clustering scheduler with a plan entry.
type Clusterer interface {
	sched.Scheduler
	ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error)
}

// Bounded wraps an unbounded clustering scheduler with the mapping
// post-pass, yielding a scheduler that honours the procs argument.
type Bounded struct {
	Inner Clusterer
}

// Name implements sched.Scheduler.
func (b *Bounded) Name() string { return b.Inner.Name() + "+map" }

// Schedule implements sched.Scheduler through the plan entry. An empty
// g gets the inner scheduler's error.
func (b *Bounded) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return b.Inner.Schedule(g, 0)
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, err
	}
	return b.ScheduleCompiled(cg, procs)
}

// ScheduleCompiled clusters with the inner scheduler's plan entry on an
// unbounded machine, then maps onto procs processors. procs <= 0 skips
// the mapping (unbounded passthrough).
func (b *Bounded) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	s, err := b.Inner.ScheduleCompiled(cg, 0)
	if err != nil || procs <= 0 {
		return s, err
	}
	out, err := Map(cg, s, procs)
	if err != nil {
		return nil, err
	}
	out.Algorithm = b.Name()
	return out, nil
}
