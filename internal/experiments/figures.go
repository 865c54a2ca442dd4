package experiments

import (
	"fmt"
	"strings"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/example"
	"fastsched/internal/fast"
	"fastsched/internal/sched"
	"fastsched/internal/table"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// Figure1 renders the paper's Figure 1(b): the static level, t-level
// (ASAP), b-level and ALAP time of every node of the example graph,
// with critical-path nodes marked by an asterisk.
func Figure1() (string, error) {
	g := example.Graph()
	l, err := dag.ComputeLevels(g)
	if err != nil {
		return "", err
	}
	t := table.New("Figure 1(b): node attributes of the example DAG (CPNs marked *)",
		"node", "SL", "t-level (ASAP)", "b-level", "ALAP")
	for _, n := range g.Nodes() {
		label := n.Label
		if l.IsCPN(n.ID) {
			label += "*"
		}
		t.AddRow(label,
			fmt.Sprintf("%g", l.Static[n.ID]),
			fmt.Sprintf("%g", l.TLevel[n.ID]),
			fmt.Sprintf("%g", l.BLevel[n.ID]),
			fmt.Sprintf("%g", l.ALAP[n.ID]))
	}
	out := t.String()
	out += fmt.Sprintf("\nCritical path length: %g\n", l.CPLen)
	return out, nil
}

// Figures2to4 reproduces the schedule walkthrough of Figures 2–4: the
// example graph scheduled by MD, ETF, DLS, DSC, the FAST initial
// schedule, and FAST after local search, each rendered as a Gantt chart
// with its schedule length.
func Figures2to4() (string, error) {
	g := example.Graph()
	type entry struct {
		s     sched.Scheduler
		procs int
	}
	entries := []entry{}
	for _, s := range casch.PaperSchedulers(Seed) {
		procs := 4
		if casch.Unbounded(s.Name()) {
			procs = 0
		}
		entries = append(entries, entry{s, procs})
	}
	entries = append(entries, entry{fast.New(fast.Options{MaxSteps: -1}), 4})

	var b strings.Builder
	b.WriteString("Figures 2-4: schedules of the example DAG\n\n")
	for _, e := range entries {
		schedule, err := e.s.Schedule(g, e.procs)
		if err != nil {
			return "", err
		}
		if err := sched.Validate(g, schedule); err != nil {
			return "", fmt.Errorf("experiments: %s invalid on example graph: %w", e.s.Name(), err)
		}
		b.WriteString(sched.Gantt(g, schedule, 60))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Figure5 returns the Gaussian elimination study (paper Figure 5) with
// the paper's matrix dimensions.
func Figure5() *AppExperiment { return GaussStudy([]int{4, 8, 16, 32}) }

// GaussStudy builds a Gaussian elimination study over arbitrary matrix
// dimensions (the paper uses 4, 8, 16, 32).
func GaussStudy(dims []int) *AppExperiment {
	db := timing.ParagonLike()
	return &AppExperiment{
		Name:      "Gaussian elimination",
		ParamName: "Matrix Dimension",
		Params:    dims,
		Generate:  func(n int) (*dag.Graph, error) { return workload.GaussElim(n, db) },
		// The paper's Figure 5(b): FAST/ETF/DLS use about n processors.
		Procs: func(n int) int { return n },
	}
}

// Figure6 returns the Laplace solver study (paper Figure 6).
func Figure6() *AppExperiment { return LaplaceStudy([]int{4, 8, 16, 32}) }

// LaplaceStudy builds a Laplace equation solver study over arbitrary
// grid dimensions.
func LaplaceStudy(dims []int) *AppExperiment {
	db := timing.ParagonLike()
	return &AppExperiment{
		Name:      "Laplace equation solver",
		ParamName: "Matrix Dimension",
		Params:    dims,
		Generate:  func(n int) (*dag.Graph, error) { return workload.Laplace(n, db) },
		Procs:     func(n int) int { return n },
	}
}

// Figure7 returns the FFT study (paper Figure 7).
func Figure7() *AppExperiment { return FFTStudy([]int{16, 64, 128, 512}) }

// FFTStudy builds an FFT study over arbitrary point counts (powers of
// two).
func FFTStudy(points []int) *AppExperiment {
	db := timing.ParagonLike()
	return &AppExperiment{
		Name:      "FFT",
		ParamName: "Number of Points",
		Params:    points,
		Generate:  func(p int) (*dag.Graph, error) { return workload.FFT(p, db) },
		// Maximum block parallelism of the butterfly.
		Procs: func(p int) int { return workload.FFTTaskCount(p) },
	}
}
