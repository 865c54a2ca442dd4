package optimal

import (
	"fmt"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
)

// expansionCeilings pins, per oracle-corpus instance, hard caps on the
// search's expansion count. serial sits at ~2.5x the measured value of
// a single-worker solve (serial search is fully deterministic, so the
// slack only absorbs future intentional changes, not run-to-run
// noise). parallel caps the 2- and 4-worker solves at >= 10x the
// largest count measured over repeated runs at GOMAXPROCS 1/2/4, with
// and without -race: workers share the incumbent and the duplicate
// table in whatever order the scheduler interleaves them, so their
// counts vary from run to run. Together they are the regression guard
// for the pruning stack and for the frontier order: a change that
// weakens the comm-aware bound, the water-fill/energetic area bounds,
// the dominance rules or the duplicate table, or that starts the
// workers off the serial search's first dive, blows one of them long
// before it blows the 5M default budget, whatever the host's CPU
// count. scripts/ci.sh runs this test as a dedicated step. The
// comments give each cell's serial count, which testdata/solver.golden
// pins exactly (TestSolverGolden), and the parallel maximum, measured
// before those counts were pinned and not re-measured since.
var expansionCeilings = map[string]struct{ serial, parallel int64 }{
	"layered/v25/seed1": {5_500, 250_000},   // 2159; 22494
	"layered/v25/seed2": {7_000, 1_200_000}, // 2495; 118992
	"layered/v25/seed3": {3_000, 25_000},    // 1062; 2079
	"layered/v25/seed4": {3_000, 300_000},   // 1109; 29362
	"layered/v25/seed7": {3_000, 50_000},    // 1263; 4560
	"forkjoin/w18c3":    {18_000, 130_000},  // 6829; 12975
	"forkjoin/w18c6":    {19_000, 90_000},   // 7271; 8565
	"forkjoin/w20c5":    {29_000, 120_000},  // 11297; 11415
	"forkjoin/w23c3":    {110_000, 430_000}, // 42663; 42836
	"forkjoin/w23c7":    {42_000, 180_000},  // 16412; 17162
	"random/v22/seed1":  {4_500, 700_000},   // 1760; 69024
	"random/v22/seed4":  {1_000, 15_000},    // 354; 1493
	"random/v22/seed6":  {500, 9_000},       // 188; 856
	"random/v22/seed7":  {1_500, 11_000},    // 483; 1029
	"random/v22/seed8":  {1_200, 14_000},    // 417; 1365
}

// TestExpansionBudgetRegression solves every oracle-corpus instance
// with one, two and four workers and asserts each proof lands under its
// pinned expansion ceiling. The ceiling is also fed to MaxExpansions,
// so a regression fails fast instead of burning the full default
// budget.
func TestExpansionBudgetRegression(t *testing.T) {
	corpus := schedtest.OracleCorpus()
	if len(corpus) != len(expansionCeilings) {
		t.Fatalf("corpus has %d instances but %d ceilings are pinned — keep them in lockstep",
			len(corpus), len(expansionCeilings))
	}
	for _, inst := range corpus {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			ceilings, ok := expansionCeilings[inst.Name]
			if !ok {
				t.Fatalf("no pinned expansion ceiling for %s", inst.Name)
			}
			solveUnder(t, inst.Graph, inst.Procs, 1, ceilings.serial)
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("parallel%d", workers), func(t *testing.T) {
					solveUnder(t, inst.Graph, inst.Procs, workers, ceilings.parallel)
				})
			}
		})
	}
}

// solveUnder solves g with the given worker count and fails unless the
// optimum is proven within ceiling expansions.
func solveUnder(t *testing.T, g *dag.Graph, procs, workers int, ceiling int64) {
	t.Helper()
	s := &Solver{Parallelism: workers, MaxExpansions: ceiling}
	_, rep, err := s.Solve(g, procs)
	if err != nil {
		t.Fatalf("%d workers: solve: %v", workers, err)
	}
	if !rep.Proven {
		t.Fatalf("%d workers: not proven within the %d-expansion ceiling (pruning regression)", workers, ceiling)
	}
	if rep.Expansions > ceiling {
		t.Fatalf("%d workers: expansions %d exceed the pinned ceiling %d", workers, rep.Expansions, ceiling)
	}
}
