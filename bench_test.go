// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the experiment index), plus the
// ablation benches for FAST's design choices. Custom metrics attach the
// table values (schedule length, processors used) to the timing rows:
//
//	go test -bench=. -benchmem
//	go test -bench=Fig8 -timeout 30m   # the full-size random study
package fastsched_test

import (
	"fmt"
	"testing"

	"fastsched"
	"fastsched/internal/example"
	"fastsched/internal/fast"
	"fastsched/internal/workload"
)

// paperAlgos is the row order of the paper's tables.
var paperAlgos = []string{"fast", "dsc", "md", "etf", "dls"}

// procsFor grants bounded algorithms the experiment's processor budget
// and the unbounded-by-definition algorithms (MD, DSC) a free machine.
func procsFor(alg string, bounded int) int {
	if alg == "dsc" || alg == "md" {
		return 0
	}
	return bounded
}

func mustScheduler(b *testing.B, name string) fastsched.Scheduler {
	b.Helper()
	s, err := fastsched.NewScheduler(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig1Levels: computing the Figure-1 attribute table (t-level,
// b-level, static level, ALAP) of the example DAG.
func BenchmarkFig1Levels(b *testing.B) {
	g := example.Graph()
	for i := 0; i < b.N; i++ {
		if _, err := fastsched.ComputeLevels(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2to4ExampleSchedules: each algorithm scheduling the
// example DAG of Figures 2–4, with the schedule length as a metric.
func BenchmarkFig2to4ExampleSchedules(b *testing.B) {
	g := example.Graph()
	for _, alg := range paperAlgos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, procsFor(alg, 4))
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// appExecBench drives one "(a)" table: schedule + simulated execution,
// reporting the normalized execution time as a metric.
func appExecBench(b *testing.B, g *fastsched.Graph, bounded int) {
	machine := fastsched.SimConfig{Contention: true, Perturb: 0.05, Seed: 42}
	baseline := map[string]float64{}
	for _, alg := range paperAlgos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			var exec float64
			for i := 0; i < b.N; i++ {
				r, err := fastsched.RunPipeline(g, s, procsFor(alg, bounded), machine)
				if err != nil {
					b.Fatal(err)
				}
				exec = r.ExecTime
			}
			if alg == "fast" {
				baseline["fast"] = exec
			}
			if base := baseline["fast"]; base > 0 {
				b.ReportMetric(exec/base, "exec/FAST")
			}
		})
	}
}

// appProcsBench drives one "(b)" table: processors used as the metric.
func appProcsBench(b *testing.B, g *fastsched.Graph, bounded int) {
	for _, alg := range paperAlgos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			procs := 0
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, procsFor(alg, bounded))
				if err != nil {
					b.Fatal(err)
				}
				procs = out.ProcsUsed()
			}
			b.ReportMetric(float64(procs), "procs")
		})
	}
}

// appSchedTimeBench drives one "(c)" table: the benchmark timing itself
// is the scheduling time the paper reports.
func appSchedTimeBench(b *testing.B, g *fastsched.Graph, bounded int) {
	for _, alg := range paperAlgos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(g, procsFor(alg, bounded)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func gauss(b *testing.B, n int) *fastsched.Graph {
	b.Helper()
	g, err := fastsched.GaussElim(n, fastsched.ParagonLike())
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFig5aGaussExec / 5b / 5c: the Gaussian elimination study at
// the paper's largest size (N=32, 594 tasks).
func BenchmarkFig5aGaussExec(b *testing.B)      { appExecBench(b, gauss(b, 32), 32) }
func BenchmarkFig5bGaussProcs(b *testing.B)     { appProcsBench(b, gauss(b, 32), 32) }
func BenchmarkFig5cGaussSchedTime(b *testing.B) { appSchedTimeBench(b, gauss(b, 32), 32) }

// BenchmarkFig6LaplaceSuite: the Laplace study (N=32, 1026 tasks),
// all three tables.
func BenchmarkFig6LaplaceSuite(b *testing.B) {
	g, err := fastsched.Laplace(32, fastsched.ParagonLike())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exec", func(b *testing.B) { appExecBench(b, g, 32) })
	b.Run("procs", func(b *testing.B) { appProcsBench(b, g, 32) })
	b.Run("schedtime", func(b *testing.B) { appSchedTimeBench(b, g, 32) })
}

// BenchmarkFig7FFTSuite: the FFT study (512 points, 194 tasks),
// all three tables.
func BenchmarkFig7FFTSuite(b *testing.B) {
	g, err := fastsched.FFT(512, fastsched.ParagonLike())
	if err != nil {
		b.Fatal(err)
	}
	procs := workload.FFTTaskCount(512)
	b.Run("exec", func(b *testing.B) { appExecBench(b, g, procs) })
	b.Run("procs", func(b *testing.B) { appProcsBench(b, g, procs) })
	b.Run("schedtime", func(b *testing.B) { appSchedTimeBench(b, g, procs) })
}

// fig8Graph builds one paper-scale random DAG (v=2000, ≈70k edges).
// MD is excluded below exactly as in the paper.
func fig8Graph(b *testing.B) *fastsched.Graph {
	b.Helper()
	g, err := fastsched.RandomDAG(fastsched.RandomDAGOptions{V: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

var fig8Algos = []string{"fast", "dsc", "etf", "dls"}

// BenchmarkFig8aRandomSL: schedule lengths on the random DAGs.
func BenchmarkFig8aRandomSL(b *testing.B) {
	g := fig8Graph(b)
	for _, alg := range fig8Algos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, procsFor(alg, 256))
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// BenchmarkFig8bRandomProcs: processors used on the random DAGs.
func BenchmarkFig8bRandomProcs(b *testing.B) {
	g := fig8Graph(b)
	for _, alg := range fig8Algos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			procs := 0
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, procsFor(alg, 256))
				if err != nil {
					b.Fatal(err)
				}
				procs = out.ProcsUsed()
			}
			b.ReportMetric(float64(procs), "procs")
		})
	}
}

// BenchmarkFig8cRandomSchedTime: the scheduling-time race the paper
// reports (FAST ≈ DSC, ETF/DLS far slower, MD hopeless and excluded).
func BenchmarkFig8cRandomSchedTime(b *testing.B) {
	g := fig8Graph(b)
	for _, alg := range fig8Algos {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(g, procsFor(alg, 256)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8SearchSteps: FAST on the Fig-8 random DAG with growing
// local-search budgets — the public-API view of the incremental
// evaluation kernel (DESIGN.md §5). The per-step cost is the slope
// between the rows; before the incremental kernel it was a full O(e)
// replay per step. The internal micro-benchmarks
// (BenchmarkEvaluateFull / BenchmarkEvaluateIncremental /
// BenchmarkSearchStep in internal/fast) isolate the kernel itself;
// scripts/bench.sh records them in BENCH_search.json.
func BenchmarkFig8SearchSteps(b *testing.B) {
	g := fig8Graph(b)
	for _, steps := range []int{64, 1024} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			s := fast.New(fast.Options{Seed: 1, MaxSteps: steps})
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(g, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §2) ---

// BenchmarkAblationListOrder: the CPN-Dominate list against plain
// b-level and static-level lists for FAST's phase 1 (no search), with
// the resulting schedule length as the quality metric.
func BenchmarkAblationListOrder(b *testing.B) {
	g := gauss(b, 16)
	for _, order := range []fast.ListOrder{fast.CPNDominate, fast.BLevelOrder, fast.StaticLevelOrder} {
		b.Run(order.String(), func(b *testing.B) {
			s := fast.New(fast.Options{Order: order, MaxSteps: -1})
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// BenchmarkAblationMaxstep: the cost/quality sweep of the local search
// budget (the paper fixes MAXSTEP at 64).
func BenchmarkAblationMaxstep(b *testing.B) {
	g := gauss(b, 16)
	for _, steps := range []int{-1, 16, 64, 256, 1024} {
		name := fmt.Sprintf("steps=%d", steps)
		if steps < 0 {
			name = "steps=0"
		}
		b.Run(name, func(b *testing.B) {
			s := fast.New(fast.Options{MaxSteps: steps, Seed: 1})
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// BenchmarkAblationInsertion: ready-time placement (the paper's O(e)
// choice) against insertion-based placement in phase 1.
func BenchmarkAblationInsertion(b *testing.B) {
	g := gauss(b, 16)
	for _, ins := range []bool{false, true} {
		name := "readytime"
		if ins {
			name = "insertion"
		}
		b.Run(name, func(b *testing.B) {
			s := fast.New(fast.Options{Insertion: ins, MaxSteps: -1})
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, 16)
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// BenchmarkAblationPFAST: serial FAST against the parallel multi-start
// search at growing worker counts (same total steps per worker).
func BenchmarkAblationPFAST(b *testing.B) {
	g := gauss(b, 32)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := fast.New(fast.Options{Parallelism: workers, Seed: 1, MaxSteps: 256})
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, 32)
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// BenchmarkExtendedComparison: the nine-algorithm comparison (paper
// five + HLFET, MCP, LC, EZ) on the Gaussian elimination workload.
func BenchmarkExtendedComparison(b *testing.B) {
	g := gauss(b, 16)
	for _, alg := range []string{"fast", "dsc", "md", "etf", "dls", "hlfet", "mcp", "lc", "ez"} {
		b.Run(alg, func(b *testing.B) {
			s := mustScheduler(b, alg)
			procs := 16
			switch alg {
			case "dsc", "md", "lc", "ez":
				procs = 0
			}
			var length float64
			for i := 0; i < b.N; i++ {
				out, err := s.Schedule(g, procs)
				if err != nil {
					b.Fatal(err)
				}
				length = out.Length()
			}
			b.ReportMetric(length, "SL")
		})
	}
}

// --- Micro-benchmarks of the core primitives ---

func BenchmarkComputeLevelsLarge(b *testing.B) {
	g, err := fastsched.RandomDAG(fastsched.RandomDAGOptions{V: 5000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastsched.ComputeLevels(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateLarge(b *testing.B) {
	g, err := fastsched.RandomDAG(fastsched.RandomDAGOptions{V: 2000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	s, err := fastsched.FAST().Schedule(g, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fastsched.Simulate(g, s, fastsched.SimConfig{Contention: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuplication: the DSH duplication heuristic against ETF on a
// duplication-friendly workload (wide out-tree, expensive messages),
// with schedule length and clone count as metrics.
func BenchmarkDuplication(b *testing.B) {
	g, err := fastsched.FFT(128, fastsched.FineGrain())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dsh", func(b *testing.B) {
		var length, clones float64
		for i := 0; i < b.N; i++ {
			res, err := fastsched.Duplicate(g, 16)
			if err != nil {
				b.Fatal(err)
			}
			length = res.Schedule.Length()
			clones = float64(res.Clones)
		}
		b.ReportMetric(length, "SL")
		b.ReportMetric(clones, "clones")
	})
	b.Run("etf", func(b *testing.B) {
		s := mustScheduler(b, "etf")
		var length float64
		for i := 0; i < b.N; i++ {
			out, err := s.Schedule(g, 16)
			if err != nil {
				b.Fatal(err)
			}
			length = out.Length()
		}
		b.ReportMetric(length, "SL")
	})
}
