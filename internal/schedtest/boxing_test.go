// The wide optimality-boxing suite: every registered algorithm is
// boxed against the exact branch-and-bound solver on the pinned
// v ≈ 20–25 oracle corpus (OracleCorpus) — ten times the instance size
// the old v <= 8 oracle suite could afford, reachable because the
// rebuilt solver proves these optima in tens of milliseconds. Like the
// other oracle tests this lives in the external package so it can
// import casch and optimal.
package schedtest_test

import (
	"testing"

	"fastsched/internal/bounds"
	"fastsched/internal/casch"
	"fastsched/internal/optimal"
	"fastsched/internal/schedtest"
)

// corpusOptima pins the proven optimal makespans of the oracle corpus,
// and corpusHeuristics pins FAST, FAST-hier and PFAST (seed 1) on the
// same instances — the 3-family × 5-instance gap table from
// EXPERIMENTS.md. Pinned exact values, not inequalities: a solver
// "improvement" that shifts an optimum, or a heuristic change that
// moves a makespan, is a behaviour change that must be reviewed.
var corpusOptima = map[string]float64{
	"layered/v25/seed1": 66,
	"layered/v25/seed2": 59,
	"layered/v25/seed3": 50,
	"layered/v25/seed4": 61,
	"layered/v25/seed7": 67,
	"forkjoin/w18c3":    16,
	"forkjoin/w18c6":    20,
	"forkjoin/w20c5":    20,
	"forkjoin/w23c3":    18,
	"forkjoin/w23c7":    24,
	"random/v22/seed1":  56,
	"random/v22/seed4":  56,
	"random/v22/seed6":  65,
	"random/v22/seed7":  53,
	"random/v22/seed8":  59,
}

var corpusHeuristics = map[string][3]float64{ // fast, fast-hier, pfast
	"layered/v25/seed1": {68, 67, 67},
	"layered/v25/seed2": {74, 74, 74},
	"layered/v25/seed3": {66, 53, 62},
	"layered/v25/seed4": {77, 76, 74},
	"layered/v25/seed7": {72, 78, 67},
	"forkjoin/w18c3":    {32, 16, 32},
	"forkjoin/w18c6":    {32, 22, 32},
	"forkjoin/w20c5":    {36, 21, 36},
	"forkjoin/w23c3":    {42, 19, 42},
	"forkjoin/w23c7":    {42, 26, 42},
	"random/v22/seed1":  {59, 62, 59},
	"random/v22/seed4":  {66, 64, 60},
	"random/v22/seed6":  {66, 68, 66},
	"random/v22/seed7":  {56, 56, 56},
	"random/v22/seed8":  {64, 69, 64},
}

// TestOracleCorpusBoxing proves every corpus optimum, checks it against
// the pinned value, and then boxes all registered algorithms:
// procs-respecting algorithms must land at or above the bounded
// optimum; the unbounded clustering family (which ignores the procs
// argument) must land at or above the processor-independent comm-aware
// lower bound, since its machine can be arbitrarily wide. Everything
// stays under the TotalWork + TotalComm envelope (see TestOracleBounds
// for why the serial sum is NOT a valid upper bound).
func TestOracleCorpusBoxing(t *testing.T) {
	for _, inst := range schedtest.OracleCorpus() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			opt, rep, err := optimal.New().Solve(inst.Graph, inst.Procs)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Proven {
				t.Fatalf("optimality not proven (%d expansions)", rep.Expansions)
			}
			if want := corpusOptima[inst.Name]; opt.Length() != want {
				t.Fatalf("proven optimum %v, pinned %v — review before repinning", opt.Length(), want)
			}
			br, err := bounds.Compute(inst.Graph, 0)
			if err != nil {
				t.Fatal(err)
			}
			if br.CommAware > opt.Length()+1e-9 {
				t.Fatalf("comm-aware bound %v exceeds the proven optimum %v", br.CommAware, opt.Length())
			}
			envelope := inst.Graph.TotalWork() + inst.Graph.TotalComm()
			for _, name := range casch.AlgorithmNames() {
				if name == "opt" {
					continue // the oracle itself
				}
				s, err := casch.NewScheduler(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				out, err := s.Schedule(inst.Graph, inst.Procs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := out.Length()
				lower := opt.Length()
				if casch.Unbounded(s.Name()) {
					lower = br.CommAware
				}
				if got < lower-1e-9 {
					t.Errorf("%s: makespan %v beats its lower bound %v (unsound solver or bound)",
						name, got, lower)
				}
				if got > envelope+1e-9 {
					t.Errorf("%s: makespan %v exceeds the work+comm envelope %v", name, got, envelope)
				}
			}
		})
	}
}

// TestHeuristicGapPinned pins FAST, FAST-hier and PFAST against the
// corpus optima — the repository's standing answer to "how far from
// optimal are the heuristics at v ≈ 20–25?". The suboptimality is
// real and expected (FAST's transfer neighbourhood plateaus; see the
// Figure-1 pin); what this test forbids is silent drift in either
// direction.
func TestHeuristicGapPinned(t *testing.T) {
	algos := []string{"fast", "fast-hier", "pfast"}
	suboptimal := map[string]bool{} // family -> a strict fast-vs-opt gap seen
	for _, inst := range schedtest.OracleCorpus() {
		want := corpusHeuristics[inst.Name]
		for ai, name := range algos {
			s, err := casch.NewScheduler(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Schedule(inst.Graph, inst.Procs)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, inst.Name, err)
			}
			if out.Length() != want[ai] {
				t.Errorf("%s on %s: makespan %v, pinned %v — review before repinning",
					name, inst.Name, out.Length(), want[ai])
			}
		}
		if want[0] > corpusOptima[inst.Name] {
			suboptimal[inst.Family] = true
		}
	}
	// Every family must keep at least one instance where the flagship
	// heuristic is strictly suboptimal — the corpus exists to measure
	// gaps, and a regeneration that loses them would hollow it out.
	for _, fam := range []string{"layered", "forkjoin", "random"} {
		if !suboptimal[fam] {
			t.Errorf("family %s has no instance with FAST strictly above the optimum", fam)
		}
	}
}
