package experiments

import (
	"fmt"

	"fastsched/internal/casch"
	"fastsched/internal/sched"
	"fastsched/internal/table"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// CCRStudy sweeps the communication-to-computation ratio of one random
// graph and compares schedule quality across the paper's algorithms —
// the standard sensitivity analysis in this literature (the paper
// controls CCR implicitly through its workloads; this study makes the
// dependence explicit). An extension beyond the paper's own tables.
type CCRStudy struct {
	// V is the node count of the underlying random graph.
	V int
	// CCRs are the swept ratios.
	CCRs []float64
	// Procs is the grant for bounded algorithms.
	Procs int
	// Seed drives graph generation.
	Seed int64
}

// DefaultCCRStudy sweeps a 500-node graph over four CCR regimes.
func DefaultCCRStudy() *CCRStudy {
	return &CCRStudy{V: 500, CCRs: []float64{0.1, 0.5, 1, 2, 10}, Procs: 32, Seed: 11}
}

// CCRResults holds the sweep: Rows[i][j] is algorithm i's schedule
// length at CCRs[j].
type CCRResults struct {
	Study      *CCRStudy
	Algorithms []string
	SL         [][]float64
}

// Run generates the graph once per CCR value (rescaled from the same
// seed graph) and schedules it with the paper's five algorithms.
func (st *CCRStudy) Run() (*CCRResults, error) {
	base, err := workload.Random(workload.RandomOpts{V: st.V, Seed: st.Seed, MeanInDegree: 6})
	if err != nil {
		return nil, err
	}
	scheds := casch.PaperSchedulers(Seed)
	res := &CCRResults{Study: st}
	for _, s := range scheds {
		res.Algorithms = append(res.Algorithms, s.Name())
	}
	res.SL = make([][]float64, len(scheds))
	for j, ccr := range st.CCRs {
		g := timing.ScaleCCR(base.Clone(), ccr)
		for i, s := range scheds {
			procs := st.Procs
			if casch.Unbounded(s.Name()) {
				procs = 0
			}
			schedule, err := s.Schedule(g, procs)
			if err != nil {
				return nil, fmt.Errorf("experiments: ccr %.2f %s: %w", ccr, s.Name(), err)
			}
			if err := sched.Validate(g, schedule); err != nil {
				return nil, fmt.Errorf("experiments: ccr %.2f %s invalid: %w", ccr, s.Name(), err)
			}
			res.SL[i] = append(res.SL[i], schedule.Length())
		}
		_ = j
	}
	return res, nil
}

// Render returns the sweep as one table of schedule lengths normalized
// to FAST per CCR column.
func (r *CCRResults) Render() string {
	h := []string{"Algorithm"}
	for _, c := range r.Study.CCRs {
		h = append(h, fmt.Sprintf("CCR %.1f", c))
	}
	t := table.New(fmt.Sprintf("CCR sweep: normalized schedule lengths, random DAG v=%d", r.Study.V), h...)
	base := r.SL[0]
	for i, alg := range r.Algorithms {
		vals := make([]float64, len(r.SL[i]))
		for j := range vals {
			vals[j] = r.SL[i][j] / base[j]
		}
		t.AddRowf(alg, "%.2f", vals...)
	}
	return t.String()
}
