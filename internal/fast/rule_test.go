package fast

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/listsched"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

// literalInitialReadyTime is phase 1 under the paper's literal
// candidate rule: the parents' processors plus one fresh processor,
// and every processor only for an entry node once none is fresh, each
// candidate priced by a walk over the node's predecessors. Once the
// fresh processors run out, a node with parents can only join one of
// their processors. It is the rule initialReadyTime follows whenever
// an empty processor always remains.
func literalInitialReadyTime(st *state) {
	for i := range st.ready {
		st.ready[i] = 0
	}
	used := 0 // processors 0..used-1 have at least one task
	for _, n := range st.list {
		bestProc, bestStart := -1, 0.0
		consider := func(p int) {
			s := st.datOn(n, p)
			if r := st.ready[p]; r > s {
				s = r
			}
			if bestProc == -1 || s < bestStart {
				bestProc, bestStart = p, s
			}
		}
		seen := false
		for i := st.csr.PredOff[n]; i < st.csr.PredOff[n+1]; i++ {
			consider(st.assign[st.csr.PredFrom[i]])
			seen = true
		}
		if used < st.procs {
			consider(used) // the fresh processor
			seen = true
		}
		if !seen {
			for p := 0; p < used; p++ {
				consider(p)
			}
		}
		st.place(n, bestProc, bestStart)
		if bestProc == used {
			used++
		}
	}
	st.length = st.maxFinish()
}

// literalFAST is the serial FAST run (seed 1) with phase 1 under the
// literal rule; search false stops after phase 1, as FAST/initial does.
func literalFAST(cg *plan.CompiledGraph, procs int, search bool) *sched.Schedule {
	if procs <= 0 {
		procs = cg.CSR.NumNodes()
	}
	st := acquireState(cg.CPNDominate, cg.CSR, procs, telemetry{})
	defer st.release()
	literalInitialReadyTime(st)
	if search {
		st.search(context.Background(), cg.Blocking, DefaultMaxSteps, 0, rand.New(rand.NewSource(1)))
	}
	return st.buildSchedule()
}

// ruleGraphs are the graphs the rule checks run on: the oracle corpus,
// hierGraphs and, with large set, TestSpliceBalanceLayered's shapes.
func ruleGraphs(t *testing.T, large bool) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, inst := range schedtest.OracleCorpus() {
		out["corpus/"+inst.Name] = inst.Graph
	}
	for name, g := range hierGraphs(t) {
		out["hier/"+name] = g
	}
	out["forkjoin/w100c50"] = schedtest.ForkJoin(100, 50)
	if large {
		for _, opts := range spliceShapes {
			c, err := workload.LayeredCSR(opts)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("layered/v%d/seed%d/w%d", opts.V, opts.Seed, opts.Width)] = c.ToGraph()
		}
	}
	return out
}

// TestRuleMatchesLiteralWithEmptyProcessor checks that FAST and
// FAST/initial are bit-identical to the literal rule whenever an empty
// processor always remains: procs <= 0 (one per node) and procs >= v.
func TestRuleMatchesLiteralWithEmptyProcessor(t *testing.T) {
	for name, g := range ruleGraphs(t, true) {
		t.Run(name, func(t *testing.T) {
			cg, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{0, g.NumNodes(), g.NumNodes() + 3} {
				for _, search := range []bool{false, true} {
					opts := Options{Seed: 1}
					if !search {
						opts.MaxSteps = -1
					}
					got, err := New(opts).ScheduleCompiled(cg, procs)
					if err != nil {
						t.Fatal(err)
					}
					assertSameSchedule(t, g.NumNodes(), literalFAST(cg, procs, search), got)
				}
			}
		})
	}
}

// TestPhase1StartsEarliest replays FAST/initial's schedule in list
// order and checks that every node starts at the earliest time any of
// the P processors offers it: the minimum over all of them of
// max(ready, arrival). The literal rule breaks this on a bounded
// machine, where a fork-join's spokes queue on the fork's processor.
func TestPhase1StartsEarliest(t *testing.T) {
	for name, g := range ruleGraphs(t, false) {
		t.Run(name, func(t *testing.T) {
			cg, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			v := g.NumNodes()
			for _, procs := range []int{1, 2, 3, 4, 16, v} {
				s, err := New(Options{MaxSteps: -1}).ScheduleCompiled(cg, procs)
				if err != nil {
					t.Fatal(err)
				}
				P := min(procs, v)
				ready := make([]float64, P)
				proc, finish := make([]int32, v), make([]float64, v)
				for _, n := range cg.CPNDominate {
					got := s.Of(n)
					earliest := math.Inf(1)
					for q := range P {
						earliest = min(earliest, max(ready[q], arrivalOn(cg.CSR, proc, finish, int32(n), int32(q))))
					}
					if got.Start != earliest {
						t.Fatalf("procs %d, node %d: starts at %v on processor %d, earliest offer %v",
							procs, n, got.Start, got.Proc, earliest)
					}
					proc[n], finish[n] = int32(got.Proc), got.Finish
					ready[got.Proc] = got.Finish
				}
			}
		})
	}
}

// TestForkJoinWidth100 pins FAST on a width-100 fork-join with comm 50,
// where the literal rule queued every spoke past the fourth or the
// sixteenth on the fork's processor (196 at p=4, 172 at p=16). FAST now
// matches fast-hier.
func TestForkJoinWidth100(t *testing.T) {
	g := schedtest.ForkJoin(100, 50)
	for procs, want := range map[int]float64{4: 140, 16: 112} {
		s, err := Default().Schedule(g, procs)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHierarchical(HierOptions{}).Schedule(g, procs)
		if err != nil {
			t.Fatal(err)
		}
		if s.Length() != want || h.Length() != want {
			t.Errorf("p=%d: FAST %v, fast-hier %v, pinned %v", procs, s.Length(), h.Length(), want)
		}
	}
}

// TestInsertionUsesPhase1Candidates replays the insertion ablation's
// schedule in list order on fresh timelines and checks that every node
// sits on phase 1's first candidate with the earliest insertion start:
// the candidates are its parents' processors in predecessor order, then
// the lowest-numbered empty processor while one remains, or every
// processor once none does.
func TestInsertionUsesPhase1Candidates(t *testing.T) {
	for name, g := range ruleGraphs(t, false) {
		t.Run(name, func(t *testing.T) {
			cg, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			v := g.NumNodes()
			for _, procs := range []int{1, 2, 3, 4, 16, v} {
				s, err := New(Options{Insertion: true, MaxSteps: -1}).ScheduleCompiled(cg, procs)
				if err != nil {
					t.Fatal(err)
				}
				if err := sched.Validate(g, s); err != nil {
					t.Fatalf("procs %d: %v", procs, err)
				}
				P := min(procs, v)
				slots := make([]listsched.Timeline, P)
				used := 0
				for _, n := range cg.CPNDominate {
					w := g.Weight(n)
					best, bestStart := -1, 0.0
					consider := func(q int) {
						dat := 0.0
						for _, e := range g.Pred(n) {
							pl := s.Of(e.From)
							arr := pl.Finish
							if pl.Proc != q {
								arr += e.Weight
							}
							dat = max(dat, arr)
						}
						if st := slots[q].EarliestStart(dat, w); best < 0 || st < bestStart {
							best, bestStart = q, st
						}
					}
					for _, e := range g.Pred(n) {
						consider(s.Of(e.From).Proc)
					}
					if used < P {
						consider(used)
					} else {
						for q := range P {
							consider(q)
						}
					}
					if got := s.Of(n); got.Proc != best || got.Start != bestStart {
						t.Fatalf("procs %d, node %d: on processor %d at %v, phase 1's candidates give %d at %v",
							procs, n, got.Proc, got.Start, best, bestStart)
					}
					slots[best].Insert(n, bestStart, w)
					if best == used {
						used++
					}
				}
			}
		})
	}
}
