package plan

import (
	"fastsched/internal/dag"
)

// CompactPlan is the CSR-only sibling of CompiledGraph for the
// million-node path: the compact levels a list scheduler needs —
// t/b-levels and the topological order — plus static levels on
// demand, without ever materializing a *dag.Graph, per-node slices, or
// the full Levels. All tables may be drawn from a ScaleArena.
//
// Both tables come from the same dag kernels ComputeLevels runs, so a
// scheduler fed a CompactPlan reproduces its *dag.Graph twin exactly
// (pinned by the differential tests in internal/hlfet).
type CompactPlan struct {
	CSR    *dag.CSR
	Levels dag.CompactLevels

	static []float64
	arena  *dag.ScaleArena
}

// CompileCompact analyzes c once. With a non-nil arena every table is
// arena-backed (single-goroutine, invalidated by the arena's Reset);
// with a nil arena the plan is immutable after Static first runs and
// safe to share from then on.
func CompileCompact(c *dag.CSR, a *dag.ScaleArena) (*CompactPlan, error) {
	p := &CompactPlan{CSR: c, arena: a}
	if _, err := c.ComputeLevelsCompactArena(&p.Levels, a); err != nil {
		return nil, err
	}
	return p, nil
}

// Static returns the static levels (computation-only b-levels),
// computed on first use by dag's static-level fold and cached on the
// plan.
func (p *CompactPlan) Static() []float64 {
	if p.static == nil {
		p.static = p.CSR.StaticLevels(&p.Levels, p.arena)
	}
	return p.static
}
