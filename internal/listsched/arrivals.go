package listsched

import (
	"errors"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Arrivals is a node's data arrival in three terms, which price every
// candidate processor in O(1) during an append-only placement: M1 is
// the latest parent arrival with every message paid, M1P the processor
// of the first parent reaching it, and M2 the latest paid arrival over
// parents on processors other than M1P.
//
// It is the one pricing kernel of the append-only list schedules:
// FAST's phase 1, fast-hier's pass, HLFET, ETF, DLS and the online
// dispatcher. DAT extends it to a partial schedule in which a parent
// may finish after its processor's ready time, as insertion into an
// earlier idle slot needs.
type Arrivals struct {
	M1, M2 float64
	M1P    int
}

// ArrivalsOf sweeps n's predecessors once, in stored slot order. proc
// and finish hold each placed node's processor (-1 for one that is
// never a candidate) and finish time.
func ArrivalsOf[N, P ~int | ~int32](c *dag.CSR, n N, proc []P, finish []float64) Arrivals {
	a := Arrivals{M1P: -1}
	lo := c.PredOff[n]
	for s := lo; s < c.PredOff[n+1]; s++ {
		fp := int(proc[c.PredFrom[s]])
		arr := finish[c.PredFrom[s]] + c.PredW[s]
		if s == lo || arr > a.M1 {
			if s > lo && fp != a.M1P && a.M1 > a.M2 {
				a.M2 = a.M1
			}
			a.M1, a.M1P = arr, fp
		} else if fp != a.M1P && arr > a.M2 {
			a.M2 = arr
		}
	}
	return a
}

// StartOn is the node's start on processor q, free from ready. It is
// valid in an append-only placement, where every parent on q has
// finished by ready, so its message costs nothing there:
//
//	max(ready, q == M1P ? M2 : M1)
func (a Arrivals) StartOn(q int, ready float64) float64 {
	if q == a.M1P {
		return max(ready, a.M2)
	}
	return max(ready, a.M1)
}

// DAT is a node's data arrival in any partial schedule: Arrivals plus
// L, the latest finish of the node's parents on M1P. On a processor
// q != M1P every parent on q finishes by its paid arrival, which is at
// most M1, and the parent reaching M1 is remote, so the arrival is M1.
// On M1P the remote parents give exactly M2 and the local ones L. Max
// is exact, so On equals the walk over the predecessors bit for bit.
//
// MD, MCP, DCP, ISH and DSC's merges price with it.
type DAT struct {
	Arrivals
	L float64
}

// DATOf sweeps n's predecessors twice, for Arrivals and then for L.
// Every parent must be placed: proc and finish hold each one's
// processor and finish time.
func DATOf[N, P ~int | ~int32](c *dag.CSR, n N, proc []P, finish []float64) DAT {
	d := DAT{Arrivals: ArrivalsOf(c, n, proc, finish)}
	for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
		if int(proc[c.PredFrom[s]]) == d.M1P {
			d.L = max(d.L, finish[c.PredFrom[s]])
		}
	}
	return d
}

// On is the node's data arrival on processor q: max(M2, L) on M1P, M1
// elsewhere.
func (d DAT) On(q int) float64 {
	if q == d.M1P {
		return max(d.M2, d.L)
	}
	return d.M1
}

// Pair is one (node, processor) candidate of a pair-selection step: the
// node's append-only start on the processor.
type Pair struct {
	Node  int32
	Proc  int
	Start float64
}

// SchedulePairs is the append-only list schedule that picks a (ready
// node, processor) pair at every step, the loop ETF and DLS share. Each
// step scans the ready nodes by ID and the processors by index, prices
// each pair with the node's Arrivals, computed once when it becomes
// ready, and keeps a candidate when better(best, cand) holds; the
// winner is appended to its processor. It reads only c: O(p·v² + e)
// time. procs <= 0 means one processor per node. The schedule reports
// no processor count, so Balance is taken over the processors used.
func SchedulePairs(name string, c *dag.CSR, procs int, better func(best, cand Pair) bool) (*sched.Schedule, error) {
	v := c.NumNodes()
	if procs <= 0 {
		procs = v
	}
	proc := make([]int32, v)
	start := make([]float64, v)
	finish := make([]float64, v)
	pending := make([]int32, v)
	arr := make([]Arrivals, v)
	ready := make([]bool, v)
	readyCount := 0
	for n := range v {
		if pending[n] = c.PredOff[n+1] - c.PredOff[n]; pending[n] == 0 {
			ready[n], arr[n] = true, ArrivalsOf(c, n, proc, finish)
			readyCount++
		}
	}
	procReady := make([]float64, procs)
	for range v {
		if readyCount == 0 {
			return nil, errors.New("listsched: no ready node (cyclic graph?)")
		}
		ObserveReadyList(readyCount)
		best := Pair{Node: -1}
		for n := range v {
			if !ready[n] {
				continue
			}
			for p := range procs {
				cand := Pair{Node: int32(n), Proc: p, Start: arr[n].StartOn(p, procReady[p])}
				if best.Node < 0 || better(best, cand) {
					best = cand
				}
			}
		}
		n := best.Node
		proc[n], start[n], finish[n] = int32(best.Proc), best.Start, best.Start+c.NodeW[n]
		procReady[best.Proc] = finish[n]
		ready[n] = false
		readyCount--
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			if pending[to]--; pending[to] == 0 {
				ready[to], arr[to] = true, ArrivalsOf(c, to, proc, finish)
				readyCount++
			}
		}
	}
	return sched.FromArrays(name, 0, proc, start, finish), nil
}
