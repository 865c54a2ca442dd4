package experiments

import (
	"fmt"
	"time"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/dls"
	"fastsched/internal/dsc"
	"fastsched/internal/etf"
	"fastsched/internal/fast"
	"fastsched/internal/sched"
	"fastsched/internal/stats"
	"fastsched/internal/table"
	"fastsched/internal/workload"
)

// RandomStudy configures the §5.2 large random-DAG experiment (paper
// Figure 8). MD is excluded exactly as in the paper ("it took more than
// 8 hours to produce a schedule for a 2000-node DAG").
type RandomStudy struct {
	// Sizes are the node counts (the paper uses 2000..5000 step 1000).
	Sizes []int
	// Procs is the bounded-machine size granted to FAST, ETF and DLS
	// ("more than enough": the paper's bounded algorithms used at most
	// 219 processors).
	Procs int
	// Seed drives graph generation (graph i uses Seed+i).
	Seed int64
	// Repeats > 1 averages each cell over that many independently
	// seeded graphs (mean reported, std recorded); 0 or 1 reproduces the
	// paper's single-draw setup.
	Repeats int
}

// RandomRow is one algorithm's measurements across the study's sizes.
// With Repeats > 1, SL/Procs/Times hold per-size means and SLStd the
// per-size standard deviation of the schedule length.
type RandomRow struct {
	Algorithm string
	SL        []float64       // schedule lengths (mean over repeats)
	SLStd     []float64       // std of schedule length over repeats
	Procs     []int           // processors used (mean, rounded)
	Times     []time.Duration // scheduling wall times (mean)
}

// RandomResults holds the whole study.
type RandomResults struct {
	Study      *RandomStudy
	EdgeCounts []int
	Rows       []*RandomRow
}

// Run generates the random graphs and schedules each with FAST, DSC,
// ETF and DLS, recording schedule length, processors used and
// scheduling time.
func (st *RandomStudy) Run() (*RandomResults, error) {
	scheds := []sched.Scheduler{
		fast.New(fast.Options{Seed: Seed}),
		dsc.New(),
		etf.New(),
		dls.New(),
	}
	res := &RandomResults{Study: st}
	for _, s := range scheds {
		res.Rows = append(res.Rows, &RandomRow{Algorithm: s.Name()})
	}
	repeats := st.Repeats
	if repeats < 1 {
		repeats = 1
	}
	for i, v := range st.Sizes {
		graphs := make([]*dagGraph, 0, repeats)
		for r := 0; r < repeats; r++ {
			g, err := workload.Random(workload.RandomOpts{V: v, Seed: st.Seed + int64(i) + int64(r)*1001})
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, g)
		}
		res.EdgeCounts = append(res.EdgeCounts, graphs[0].NumEdges())
		for ri, s := range scheds {
			procs := st.Procs
			if casch.Unbounded(s.Name()) {
				procs = 0
			}
			var lens, procsUsed []float64
			var total time.Duration
			for _, g := range graphs {
				begin := time.Now()
				schedule, err := s.Schedule(g, procs)
				total += time.Since(begin)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s on v=%d: %w", s.Name(), v, err)
				}
				if err := sched.Validate(g, schedule); err != nil {
					return nil, fmt.Errorf("experiments: %s invalid on v=%d: %w", s.Name(), v, err)
				}
				lens = append(lens, schedule.Length())
				procsUsed = append(procsUsed, float64(schedule.ProcsUsed()))
			}
			sum := stats.Summarize(lens)
			row := res.Rows[ri]
			row.SL = append(row.SL, sum.Mean)
			row.SLStd = append(row.SLStd, sum.Std)
			row.Procs = append(row.Procs, int(stats.Summarize(procsUsed).Mean+0.5))
			row.Times = append(row.Times, total/time.Duration(repeats))
		}
	}
	return res, nil
}

// dagGraph is a local alias keeping the Run loop readable.
type dagGraph = dag.Graph

func (r *RandomResults) headers(withEdges bool) []string {
	h := []string{"Algorithm"}
	for i, v := range r.Study.Sizes {
		if withEdges {
			h = append(h, fmt.Sprintf("%d (%d)", v, r.EdgeCounts[i]))
		} else {
			h = append(h, fmt.Sprintf("%d", v))
		}
	}
	return h
}

// SLTable renders Figure 8(a): schedule lengths normalized to FAST.
func (r *RandomResults) SLTable() *table.Table {
	t := table.New("(a) Normalized schedule lengths — random DAGs (Number of Nodes)", r.headers(false)...)
	base := r.Rows[0]
	for _, row := range r.Rows {
		vals := make([]float64, len(row.SL))
		for j := range vals {
			vals[j] = row.SL[j] / base.SL[j]
		}
		t.AddRowf(row.Algorithm, "%.2f", vals...)
	}
	return t
}

// ProcsTable renders Figure 8(b): processors used.
func (r *RandomResults) ProcsTable() *table.Table {
	t := table.New("(b) Number of processors used — random DAGs (Number of Nodes)", r.headers(false)...)
	for _, row := range r.Rows {
		cells := []string{row.Algorithm}
		for _, p := range row.Procs {
			cells = append(cells, fmt.Sprintf("%d", p))
		}
		t.AddRow(cells...)
	}
	return t
}

// TimesTable renders Figure 8(c): scheduling times in milliseconds,
// with edge counts in the header as in the paper.
func (r *RandomResults) TimesTable() *table.Table {
	t := table.New("(c) Scheduling times in ms — random DAGs (Number of Nodes (Number of Edges))", r.headers(true)...)
	for _, row := range r.Rows {
		vals := make([]float64, len(row.Times))
		for j := range vals {
			vals[j] = float64(row.Times[j].Microseconds()) / 1000.0
		}
		t.AddRowf(row.Algorithm, "%.3f", vals...)
	}
	return t
}

// Render returns all three tables.
func (r *RandomResults) Render() string {
	return r.SLTable().String() + "\n" + r.ProcsTable().String() + "\n" + r.TimesTable().String()
}
