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
	"fastsched/internal/sched"
)

// Map folds the clustering implied by schedule s (its processor groups)
// onto at most procs physical processors and re-evaluates the schedule.
// Clusters are packed in decreasing total-work order onto the
// least-loaded processor (longest-processing-time bin packing). A
// schedule already within the budget is returned unchanged.
func Map(g *dag.Graph, s *sched.Schedule, procs int) (*sched.Schedule, error) {
	if procs < 1 {
		return nil, errors.New("mapping: need at least one processor")
	}
	if s.ProcsUsed() <= procs {
		return s, nil
	}
	_, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}

	clusters := s.Procs()
	type loadedCluster struct {
		id   int
		work float64
	}
	lcs := make([]loadedCluster, 0, len(clusters))
	for _, c := range clusters {
		var work float64
		for _, n := range s.OnProc(c) {
			work += g.Weight(n)
		}
		lcs = append(lcs, loadedCluster{c, work})
	}
	sort.SliceStable(lcs, func(i, j int) bool {
		if lcs[i].work != lcs[j].work {
			return lcs[i].work > lcs[j].work
		}
		return lcs[i].id < lcs[j].id
	})
	target := make(map[int]int, len(clusters)) // cluster -> processor
	load := make([]float64, procs)
	for _, c := range lcs {
		least := 0
		for p := 1; p < procs; p++ {
			if load[p] < load[least] {
				least = p
			}
		}
		target[c.id] = least
		load[least] += c.work
	}

	assign := make([]int, g.NumNodes())
	for _, c := range clusters {
		for _, n := range s.OnProc(c) {
			assign[n] = target[c]
		}
	}
	out := cluster.Evaluate(g, l.PriorityOrder(l.BLevel), assign)
	out.Algorithm = s.Algorithm + "+map"
	return out, nil
}

// Bounded wraps an unbounded clustering scheduler with the mapping
// post-pass, yielding a scheduler that honours the procs argument.
type Bounded struct {
	Inner sched.Scheduler
}

// Name implements sched.Scheduler.
func (b *Bounded) Name() string { return b.Inner.Name() + "+map" }

// Schedule implements sched.Scheduler: cluster with the inner algorithm
// on an unbounded machine, then map onto procs processors. procs <= 0
// skips the mapping (unbounded passthrough).
func (b *Bounded) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	s, err := b.Inner.Schedule(g, 0)
	if err != nil {
		return nil, err
	}
	if procs <= 0 {
		return s, nil
	}
	out, err := Map(g, s, procs)
	if err != nil {
		return nil, err
	}
	out.Algorithm = b.Name()
	return out, nil
}
