// Package experiments reproduces every table and figure of the paper's
// evaluation section: the Figure-1 attribute table, the Figure 2–4
// schedule walkthrough, the three real-application studies (Figures
// 5–7: Gaussian elimination, Laplace solver, FFT) and the large random
// DAG study (Figure 8). Each driver returns structured results plus the
// rendered tables; cmd/experiments and the root benchmarks are thin
// wrappers around this package.
package experiments

import (
	"fmt"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/sim"
	"fastsched/internal/table"
)

// Machine returns the machine model shared by all experiments: Paragon-
// style single-port send contention plus a 5% deterministic runtime
// perturbation, so simulated execution differs from the Gantt chart the
// way real execution differed from CASCH's estimates.
func Machine() sim.Config {
	return sim.Config{Contention: true, Perturb: 0.05, Seed: 42}
}

// Seed is the FAST search seed used by all experiment drivers.
const Seed = 1

// AppExperiment describes one of the §5.1 application studies.
type AppExperiment struct {
	// Name titles the tables (e.g. "Gaussian elimination").
	Name string
	// ParamName labels the columns (e.g. "Matrix Dimension").
	ParamName string
	// Params are the column values (e.g. 4, 8, 16, 32).
	Params []int
	// Generate builds the application graph for one parameter.
	Generate func(param int) (*dag.Graph, error)
	// Procs returns the processor count granted to the bounded
	// algorithms (FAST, ETF, DLS) for one parameter; MD and DSC are
	// unbounded by definition and always receive 0.
	Procs func(param int) int
}

// AppResults holds one study's measurements: Rows[i][j] is algorithm i
// (paper row order) on parameter j.
type AppResults struct {
	Exp        *AppExperiment
	Algorithms []string
	TaskCounts []int
	Rows       [][]*casch.Result
}

// Run executes the study: every paper algorithm on every parameter.
func (e *AppExperiment) Run() (*AppResults, error) {
	scheds := casch.PaperSchedulers(Seed)
	res := &AppResults{Exp: e}
	for _, s := range scheds {
		res.Algorithms = append(res.Algorithms, s.Name())
	}
	res.Rows = make([][]*casch.Result, len(scheds))
	for i := range res.Rows {
		res.Rows[i] = make([]*casch.Result, len(e.Params))
	}
	for j, param := range e.Params {
		g, err := e.Generate(param)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s param %d: %w", e.Name, param, err)
		}
		res.TaskCounts = append(res.TaskCounts, g.NumNodes())
		for i, s := range scheds {
			procs := e.Procs(param)
			if casch.Unbounded(s.Name()) {
				procs = 0
			}
			r, err := casch.Run(g, s, procs, Machine())
			if err != nil {
				return nil, fmt.Errorf("experiments: %s param %d: %w", e.Name, param, err)
			}
			res.Rows[i][j] = r
		}
	}
	return res, nil
}

func (r *AppResults) headers() []string {
	h := []string{"Algorithm"}
	for _, p := range r.Exp.Params {
		h = append(h, fmt.Sprintf("%d", p))
	}
	return h
}

// ExecTable renders the "(a)" table of the study: simulated execution
// times normalized to FAST's row, exactly like the paper's normalized
// Paragon execution times.
func (r *AppResults) ExecTable() *table.Table {
	t := table.New(fmt.Sprintf("(a) Normalized simulated execution times — %s (%s)", r.Exp.Name, r.Exp.ParamName), r.headers()...)
	base := r.Rows[0] // FAST row
	for i, alg := range r.Algorithms {
		vals := make([]float64, len(r.Exp.Params))
		for j := range vals {
			vals[j] = r.Rows[i][j].ExecTime / base[j].ExecTime
		}
		t.AddRowf(alg, "%.2f", vals...)
	}
	return t
}

// ProcsTable renders the "(b)" table: processors used.
func (r *AppResults) ProcsTable() *table.Table {
	t := table.New(fmt.Sprintf("(b) Number of processors used — %s (%s)", r.Exp.Name, r.Exp.ParamName), r.headers()...)
	for i, alg := range r.Algorithms {
		cells := []string{alg}
		for j := range r.Exp.Params {
			cells = append(cells, fmt.Sprintf("%d", r.Rows[i][j].ProcsUsed))
		}
		t.AddRow(cells...)
	}
	return t
}

// SchedTimeTable renders the "(c)" table: scheduling times in
// milliseconds, with the task count of each column in the header.
func (r *AppResults) SchedTimeTable() *table.Table {
	h := []string{"Algorithm"}
	for j, p := range r.Exp.Params {
		h = append(h, fmt.Sprintf("%d (%d)", p, r.TaskCounts[j]))
	}
	t := table.New(fmt.Sprintf("(c) Scheduling times in ms — %s (%s (tasks))", r.Exp.Name, r.Exp.ParamName), h...)
	for i, alg := range r.Algorithms {
		vals := make([]float64, len(r.Exp.Params))
		for j := range vals {
			vals[j] = float64(r.Rows[i][j].SchedulingTime.Microseconds()) / 1000.0
		}
		t.AddRowf(alg, "%.3f", vals...)
	}
	return t
}

// Render returns all three tables of the study as one report.
func (r *AppResults) Render() string {
	return r.ExecTable().String() + "\n" + r.ProcsTable().String() + "\n" + r.SchedTimeTable().String()
}
