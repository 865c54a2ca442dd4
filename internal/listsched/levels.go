package listsched

import "fastsched/internal/dag"

// PartialLevels fills t and b with the t- and b-levels of a partial
// schedule and returns its critical-path length, the largest t + b. A
// node with proc[n] >= 0 is scheduled: its t-level is pinned at
// start[n], and an edge between two scheduled nodes on one processor
// costs nothing. The passes fold along order, which must be
// topological, over the CSR's slots in stored order. MD reads t and b;
// DCP turns b into its latest start, cp − b.
func PartialLevels(c *dag.CSR, order []dag.NodeID, proc []int32, start, t, b []float64) float64 {
	for _, n := range order {
		if proc[n] >= 0 {
			t[n] = start[n]
			continue
		}
		// n is unscheduled, so every message into it is paid.
		tn := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			p := c.PredFrom[s]
			if cand := t[p] + c.NodeW[p] + c.PredW[s]; cand > tn {
				tn = cand
			}
		}
		t[n] = tn
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		bn := 0.0
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			w := c.SuccW[s]
			if proc[n] >= 0 && proc[c.SuccTo[s]] == proc[n] {
				w = 0
			}
			if cand := w + b[c.SuccTo[s]]; cand > bn {
				bn = cand
			}
		}
		b[n] = c.NodeW[n] + bn
	}
	cp := 0.0
	for _, n := range order {
		if sum := t[n] + b[n]; sum > cp {
			cp = sum
		}
	}
	return cp
}
