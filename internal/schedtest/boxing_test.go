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
	"fastsched/internal/stats"
)

// corpusOptima pins the proven optimal makespans of the oracle corpus,
// and corpusHeuristics pins every bounded registry algorithm (seed 1,
// one column per gapAlgos entry) on the same instances — the
// 3-family × 5-instance gap table from EXPERIMENTS.md. Pinned exact
// values, not inequalities: a solver "improvement" that shifts an
// optimum, or a heuristic change that moves a makespan, is a behaviour
// change that must be reviewed.
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

// gapAlgos are corpusHeuristics' columns: FAST's family, then the
// bounded baselines.
var gapAlgos = [...]string{
	"fast", "fast-hier", "pfast", "fast-initial",
	"etf", "dls", "hlfet", "mcp", "ish", "md", "dcp", "mh", "dsc-map", "lc-map",
}

var corpusHeuristics = map[string][len(gapAlgos)]float64{
	"layered/v25/seed1": {67, 67, 67, 67, 72, 67, 67, 67, 67, 67, 67, 66, 67, 76},
	"layered/v25/seed2": {71, 74, 71, 80, 71, 71, 74, 71, 71, 76, 71, 73, 87, 87},
	"layered/v25/seed3": {64, 53, 64, 64, 51, 51, 57, 52, 51, 54, 56, 53, 71, 69},
	"layered/v25/seed4": {74, 76, 74, 78, 62, 64, 70, 62, 64, 74, 68, 64, 75, 89},
	"layered/v25/seed7": {75, 78, 75, 84, 76, 79, 82, 78, 80, 72, 80, 81, 83, 82},
	"forkjoin/w18c3":    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 22, 18, 18},
	"forkjoin/w18c6":    {22, 22, 22, 22, 22, 22, 22, 22, 22, 22, 20, 28, 24, 24},
	"forkjoin/w20c5":    {21, 21, 21, 21, 21, 21, 21, 21, 21, 22, 20, 27, 22, 22},
	"forkjoin/w23c3":    {19, 19, 19, 19, 19, 19, 19, 19, 19, 20, 18, 25, 20, 20},
	"forkjoin/w23c7":    {26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 24, 32, 28, 28},
	"random/v22/seed1":  {58, 62, 58, 58, 58, 58, 58, 62, 58, 62, 56, 62, 57, 82},
	"random/v22/seed4":  {63, 64, 63, 67, 57, 58, 58, 59, 58, 58, 61, 57, 71, 78},
	"random/v22/seed6":  {65, 68, 65, 65, 67, 68, 73, 67, 68, 82, 67, 67, 67, 67},
	"random/v22/seed7":  {56, 56, 56, 56, 54, 58, 58, 56, 56, 71, 61, 55, 56, 58},
	"random/v22/seed8":  {68, 69, 68, 68, 59, 63, 65, 61, 63, 66, 63, 61, 76, 71},
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

// TestHeuristicGapPinned pins every bounded registry algorithm against
// the corpus optima — the repository's standing answer to "how far
// from optimal are the heuristics at v ≈ 20–25?". The suboptimality is
// real and expected (FAST's transfer neighbourhood plateaus; see the
// Figure-1 pin); what this test forbids is silent drift in either
// direction.
func TestHeuristicGapPinned(t *testing.T) {
	suboptimal := map[string]bool{} // family -> a strict fast-vs-opt gap seen
	for _, inst := range schedtest.OracleCorpus() {
		want := corpusHeuristics[inst.Name]
		for ai, name := range gapAlgos {
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

// TestDCPGapPinned bounds DCP's geometric-mean gap to the corpus
// optima. DCP read 1.498 while only an entry node could consider every
// processor of a full machine, and 1.063 once it took the
// bounded-machine candidate rule FAST's phase 1 follows; the five
// fork-join cells are where the rule matters most.
func TestDCPGapPinned(t *testing.T) {
	var ratios []float64
	for _, inst := range schedtest.OracleCorpus() {
		s, err := casch.NewScheduler("dcp", 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Schedule(inst.Graph, inst.Procs)
		if err != nil {
			t.Fatalf("dcp on %s: %v", inst.Name, err)
		}
		ratios = append(ratios, out.Length()/corpusOptima[inst.Name])
	}
	if gap := stats.GeoMean(ratios); gap > 1.10 {
		t.Errorf("dcp's corpus gap is %.3f, want at most 1.10", gap)
	}
}
