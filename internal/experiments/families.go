package experiments

import (
	"fmt"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/sched"
	"fastsched/internal/stats"
	"fastsched/internal/table"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// FamilyStudy is the robustness sweep across every workload family in
// the library (an extension beyond the paper, which evaluates three):
// one representative instance per family, the paper's five algorithms,
// schedule lengths normalized to FAST per column plus a cross-family
// geometric mean.
type FamilyStudy struct {
	// Procs is the grant for bounded algorithms.
	Procs int
	// Scale picks instance sizes: 1 = test scale, 2 = default.
	Scale int
}

// DefaultFamilyStudy returns the standard configuration.
func DefaultFamilyStudy() *FamilyStudy { return &FamilyStudy{Procs: 16, Scale: 2} }

// FamilyResults holds the sweep: SL[i][j] is algorithm i on family j.
type FamilyResults struct {
	Families   []string
	Algorithms []string
	SL         [][]float64
	GeoMean    []float64
}

func (st *FamilyStudy) instances() ([]string, []*dag.Graph, error) {
	db := timing.ParagonLike()
	scale := st.Scale
	if scale < 1 {
		scale = 1
	}
	type gen struct {
		name  string
		build func() (*dag.Graph, error)
	}
	gens := []gen{
		{"gauss", func() (*dag.Graph, error) { return workload.GaussElim(8*scale, db) }},
		{"laplace", func() (*dag.Graph, error) { return workload.Laplace(8*scale, db) }},
		{"fft", func() (*dag.Graph, error) { return workload.FFT(64*scale*scale, db) }},
		{"lu", func() (*dag.Graph, error) { return workload.LU(8*scale, db) }},
		{"cholesky", func() (*dag.Graph, error) { return workload.Cholesky(8*scale, db) }},
		{"stencil", func() (*dag.Graph, error) { return workload.Stencil(4*scale, 3, db) }},
		{"dnc", func() (*dag.Graph, error) { return workload.DivideConquer(3+scale, db) }},
		{"random", func() (*dag.Graph, error) {
			return workload.Random(workload.RandomOpts{V: 150 * scale, Seed: 5, MeanInDegree: 6})
		}},
	}
	names := make([]string, 0, len(gens))
	graphs := make([]*dag.Graph, 0, len(gens))
	for _, g := range gens {
		built, err := g.build()
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: family %s: %w", g.name, err)
		}
		names = append(names, g.name)
		graphs = append(graphs, built)
	}
	return names, graphs, nil
}

// Run executes the sweep.
func (st *FamilyStudy) Run() (*FamilyResults, error) {
	names, graphs, err := st.instances()
	if err != nil {
		return nil, err
	}
	scheds := casch.PaperSchedulers(Seed)
	res := &FamilyResults{Families: names}
	for _, s := range scheds {
		res.Algorithms = append(res.Algorithms, s.Name())
	}
	res.SL = make([][]float64, len(scheds))
	for j, g := range graphs {
		for i, s := range scheds {
			procs := st.Procs
			if casch.Unbounded(s.Name()) {
				procs = 0
			}
			schedule, err := s.Schedule(g, procs)
			if err != nil {
				return nil, fmt.Errorf("experiments: family %s %s: %w", names[j], s.Name(), err)
			}
			if err := sched.Validate(g, schedule); err != nil {
				return nil, fmt.Errorf("experiments: family %s %s invalid: %w", names[j], s.Name(), err)
			}
			res.SL[i] = append(res.SL[i], schedule.Length())
		}
	}
	base := res.SL[0]
	for i := range res.SL {
		res.GeoMean = append(res.GeoMean, stats.GeoMean(stats.Normalize(res.SL[i], base)))
	}
	return res, nil
}

// Render returns the sweep as one table of normalized schedule lengths.
func (r *FamilyResults) Render() string {
	h := append([]string{"Algorithm"}, r.Families...)
	h = append(h, "geomean")
	t := table.New("Workload-family robustness: schedule lengths normalized to FAST", h...)
	base := r.SL[0]
	for i, alg := range r.Algorithms {
		cells := []string{alg}
		for j := range r.SL[i] {
			cells = append(cells, fmt.Sprintf("%.2f", r.SL[i][j]/base[j]))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.GeoMean[i]))
		t.AddRow(cells...)
	}
	return t.String()
}
