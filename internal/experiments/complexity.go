package experiments

import (
	"fmt"
	"math"
	"time"

	"fastsched/internal/casch"
	"fastsched/internal/dls"
	"fastsched/internal/dsc"
	"fastsched/internal/etf"
	"fastsched/internal/fast"
	"fastsched/internal/sched"
	"fastsched/internal/stats"
	"fastsched/internal/table"
	"fastsched/internal/workload"
)

// ComplexityStudy empirically validates the complexity claims at the
// heart of the paper: it times each scheduler across growing random
// graphs (edge count proportional to node count) and fits the growth
// exponent of time versus graph size by log-log regression. FAST's
// O(e) claim predicts an exponent near 1; ETF/DLS's O(p·v^2) predicts
// near 2 for fixed p.
type ComplexityStudy struct {
	// Sizes are the node counts (edges scale linearly via MeanInDegree).
	Sizes []int
	// Procs is the bounded-machine grant.
	Procs int
	// Reps medians away timing noise.
	Reps int
	// Seed drives graph generation.
	Seed int64
}

// DefaultComplexityStudy spans 500..4000 nodes.
func DefaultComplexityStudy() *ComplexityStudy {
	return &ComplexityStudy{Sizes: []int{500, 1000, 2000, 4000}, Procs: 64, Reps: 3, Seed: 17}
}

// ComplexityResults holds the timings and fitted exponents.
type ComplexityResults struct {
	Study      *ComplexityStudy
	Sizes      []int
	Edges      []int
	Algorithms []string
	// Times[i][j] is algorithm i's median scheduling time at size j.
	Times [][]time.Duration
	// Exponent[i] is the fitted log-log slope of time over (v + e).
	Exponent []float64
}

// Run executes the study.
func (st *ComplexityStudy) Run() (*ComplexityResults, error) {
	scheds := []sched.Scheduler{
		fast.New(fast.Options{Seed: Seed}),
		dsc.New(),
		etf.New(),
		dls.New(),
	}
	reps := st.Reps
	if reps < 1 {
		reps = 1
	}
	res := &ComplexityResults{Study: st, Sizes: st.Sizes}
	for _, s := range scheds {
		res.Algorithms = append(res.Algorithms, s.Name())
	}
	res.Times = make([][]time.Duration, len(scheds))

	for j, v := range st.Sizes {
		g, err := workload.Random(workload.RandomOpts{V: v, Seed: st.Seed + int64(j), MeanInDegree: 8})
		if err != nil {
			return nil, err
		}
		res.Edges = append(res.Edges, g.NumEdges())
		for i, s := range scheds {
			procs := st.Procs
			if casch.Unbounded(s.Name()) {
				procs = 0
			}
			samples := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				begin := time.Now()
				if _, err := s.Schedule(g, procs); err != nil {
					return nil, fmt.Errorf("experiments: complexity %s v=%d: %w", s.Name(), v, err)
				}
				samples = append(samples, float64(time.Since(begin)))
			}
			res.Times[i] = append(res.Times[i], time.Duration(stats.Summarize(samples).Median))
		}
	}
	// Fit exponents over problem size v + e.
	logSize := make([]float64, len(st.Sizes))
	for j := range st.Sizes {
		logSize[j] = math.Log(float64(st.Sizes[j] + res.Edges[j]))
	}
	for i := range scheds {
		logTime := make([]float64, len(st.Sizes))
		for j := range st.Sizes {
			logTime[j] = math.Log(float64(res.Times[i][j]))
		}
		res.Exponent = append(res.Exponent, stats.Slope(logSize, logTime))
	}
	return res, nil
}

// Render returns the timing table with the fitted growth exponent as
// the final column.
func (r *ComplexityResults) Render() string {
	h := []string{"Algorithm"}
	for j, v := range r.Sizes {
		h = append(h, fmt.Sprintf("%d (%d)", v, r.Edges[j]))
	}
	h = append(h, "exponent")
	t := table.New("Complexity validation: scheduling times in ms over v (e), with fitted growth exponent", h...)
	for i, alg := range r.Algorithms {
		cells := []string{alg}
		for j := range r.Sizes {
			cells = append(cells, fmt.Sprintf("%.2f", float64(r.Times[i][j].Microseconds())/1000))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.Exponent[i]))
		t.AddRow(cells...)
	}
	return t.String()
}
