package listsched

import (
	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// DATCache memoizes the data-arrival times of one node whose parents
// are all scheduled. DAT(n, p) depends on p only through which parents
// are co-located with p, so it collapses to one value per distinct
// parent processor plus a default for every other processor. Building
// the cache costs O(deg · distinct parent procs); queries are O(1).
//
// MCP and ISH evaluate DAT(n, p) for one node against every processor;
// with this cache that costs O(p) after the build instead of
// O(p · deg). Unlike Arrivals it keeps a local parent's finish, which
// insertion into an earlier idle slot needs.
type DATCache struct {
	// all is DAT on a processor hosting none of the parents.
	all float64
	// perProc overrides all for processors hosting at least one parent.
	perProc map[int]float64
}

// NewDATCache computes the cache for node n under schedule s. Every
// parent of n must already be scheduled.
func NewDATCache(g *dag.Graph, s *sched.Schedule, n dag.NodeID) *DATCache {
	preds := g.Pred(n)
	c := &DATCache{}
	for _, e := range preds {
		if arr := s.Of(e.From).Finish + e.Weight; arr > c.all {
			c.all = arr
		}
	}
	// Distinct parent processors.
	var procs []int
	seen := map[int]bool{}
	for _, e := range preds {
		p := s.Of(e.From).Proc
		if !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	if len(procs) > 0 {
		c.perProc = make(map[int]float64, len(procs))
		for _, q := range procs {
			var dat float64
			for _, e := range preds {
				pl := s.Of(e.From)
				arr := pl.Finish
				if pl.Proc != q {
					arr += e.Weight
				}
				if arr > dat {
					dat = arr
				}
			}
			c.perProc[q] = dat
		}
	}
	return c
}

// DAT returns the data-arrival time of the cached node on processor p.
func (c *DATCache) DAT(p int) float64 {
	if d, ok := c.perProc[p]; ok {
		if m := enabled.Load(); m != nil {
			m.DATCacheHits.Inc()
		}
		return d
	}
	if m := enabled.Load(); m != nil {
		m.DATCacheShared.Inc()
	}
	return c.all
}
