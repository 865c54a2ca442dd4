package hlfet

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/sched"
)

// scheduleWithLevels is HLFET over a *dag.Graph through listsched's
// machine, pricing data arrival by a direct walk over the predecessors:
// the textbook form the CSR loop replaced, kept as the oracle
// TestScheduleCSRBitIdentical compares every entry point against.
func scheduleWithLevels(g *dag.Graph, l *dag.Levels, procs int) (*sched.Schedule, error) {
	v := g.NumNodes()
	if procs <= 0 {
		procs = v
	}
	m := listsched.NewMachine(procs)
	s := sched.New(v)
	s.Algorithm = "HLFET"

	unschedParents := make([]int, v)
	ready := make([]bool, v)
	readyCount := 0
	for i := 0; i < v; i++ {
		unschedParents[i] = g.InDegree(dag.NodeID(i))
		if unschedParents[i] == 0 {
			ready[i] = true
			readyCount++
		}
	}

	for scheduled := 0; scheduled < v; scheduled++ {
		if readyCount == 0 {
			return nil, errors.New("hlfet: no ready node (cyclic graph?)")
		}
		// Highest static level among ready nodes; ties to smaller ID.
		best := dag.None
		for i := 0; i < v; i++ {
			if !ready[i] {
				continue
			}
			n := dag.NodeID(i)
			if best == dag.None || l.Static[n] > l.Static[best] {
				best = n
			}
		}
		// Earliest-start processor for that node, scan order breaks ties.
		proc, start := -1, 0.0
		for p := 0; p < procs; p++ {
			dat := 0.0
			for _, e := range g.Pred(best) {
				pl := s.Of(e.From)
				arr := pl.Finish
				if pl.Proc != p {
					arr += e.Weight
				}
				dat = max(dat, arr)
			}
			st := max(m.Proc(p).ReadyTime(), dat)
			if proc == -1 || st < start {
				proc, start = p, st
			}
		}
		w := g.Weight(best)
		m.Proc(proc).Insert(best, start, w)
		s.Place(best, proc, start, start+w)
		ready[best] = false
		readyCount--
		for _, e := range g.Succ(best) {
			unschedParents[e.To]--
			if unschedParents[e.To] == 0 {
				ready[e.To] = true
				readyCount++
			}
		}
	}
	return s, nil
}
