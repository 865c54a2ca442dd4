package fast

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

// TestHierConformance runs the shared invariant suite over the
// hierarchical scheduler: validity, determinism, and the bounded-
// scheduler makespan envelope (TotalWork + TotalComm) all hold.
func TestHierConformance(t *testing.T) {
	schedtest.Conformance(t, NewHierarchical(HierOptions{Seed: 1}), true)
}

func hierGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	gs := make(map[string]*dag.Graph)
	g, err := workload.Random(workload.RandomOpts{V: 300, Seed: 9, MeanInDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	gs["random"] = g
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gs["layered"] = c.ToGraph()
	return gs
}

// TestHierScheduleCSRValid checks the native CSR entry point: the
// schedule passes ValidateFlat, stays under the work+comm envelope, and
// has the same placements Schedule produces.
func TestHierScheduleCSRValid(t *testing.T) {
	h := NewHierarchical(HierOptions{Seed: 1})
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := dag.BuildCSR(g)
			for _, procs := range []int{1, 4, 0} {
				f, err := h.ScheduleCSR(c, procs)
				if err != nil {
					t.Fatal(err)
				}
				if err := sched.ValidateFlat(c, f); err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if env := c.TotalWork() + c.TotalComm(); f.Length() > env {
					t.Fatalf("procs=%d: makespan %v exceeds envelope %v", procs, f.Length(), env)
				}
				if f.Algorithm != h.Name() {
					t.Fatalf("algorithm %q, want %q", f.Algorithm, h.Name())
				}
				want, err := h.Schedule(g, procs)
				if err != nil {
					t.Fatal(err)
				}
				assertSameSchedule(t, g.NumNodes(), want, f)
			}
		})
	}
}

// TestHierDeterminism pins the fixed-seed contract: every pipeline
// stage is deterministic, so repeated runs are bit-identical.
func TestHierDeterminism(t *testing.T) {
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := dag.BuildCSR(g)
			a, err := NewHierarchical(HierOptions{Seed: 42}).ScheduleCSR(c, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewHierarchical(HierOptions{Seed: 42}).ScheduleCSR(c, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, g.NumNodes(), a, b)
		})
	}
}

// TestHierCompiledMatchesSchedule pins the serving-path contract:
// ScheduleCompiled against a precompiled plan is bit-identical to
// Schedule on the raw graph.
func TestHierCompiledMatchesSchedule(t *testing.T) {
	h := NewHierarchical(HierOptions{Seed: 1})
	for name, g := range hierGraphs(t) {
		t.Run(name, func(t *testing.T) {
			cg, err := plan.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := h.Schedule(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.ScheduleCompiled(cg, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSchedule(t, g.NumNodes(), want, got)
		})
	}
}

// TestHierEmptyGraph checks the empty-graph error paths.
func TestHierEmptyGraph(t *testing.T) {
	h := NewHierarchical(HierOptions{})
	if _, err := h.Schedule(dag.New(0), 2); err == nil {
		t.Fatal("empty graph scheduled")
	}
	if _, err := h.ScheduleCSR(dag.BuildCSR(dag.New(0)), 2); err == nil {
		t.Fatal("empty CSR scheduled")
	}
}

// referencePlacement is ScheduleCSR's rule written out directly: the
// same priority order and candidates, but each candidate's data arrival
// is a walk over the node's predecessors, with no decomposition.
func referencePlacement(t *testing.T, c *dag.CSR, procs int) (proc []int32, start, finish []float64) {
	t.Helper()
	v := c.NumNodes()
	l, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prio := buildPriorityOrder(l, v, nil)
	P := procs
	if P <= 0 || P > v {
		P = v
	}
	proc, start, finish = make([]int32, v), make([]float64, v), make([]float64, v)
	ready := make([]float64, P)
	used := int32(0)
	for _, n := range prio {
		var cands []int32
		if int(used) < P {
			for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
				cands = append(cands, proc[c.PredFrom[s]])
			}
			cands = append(cands, used)
		} else {
			for q := range int32(P) {
				cands = append(cands, q)
			}
		}
		best, bestStart := int32(-1), 0.0
		for _, q := range cands {
			st := max(ready[q], arrivalOn(c, proc, finish, n, q))
			if best < 0 || st < bestStart || st == bestStart && q < best {
				best, bestStart = q, st
			}
		}
		if best == used {
			used++
		}
		proc[n], start[n], finish[n] = best, bestStart, bestStart+c.NodeW[n]
		ready[best] = finish[n]
	}
	return proc, start, finish
}

// arrivalOn is the time node n's last input reaches processor q: the
// latest parent finish, plus the message when the parent ran elsewhere.
func arrivalOn(c *dag.CSR, proc []int32, finish []float64, n, q int32) float64 {
	d := 0.0
	for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
		from := c.PredFrom[s]
		t := finish[from]
		if proc[from] != q {
			t += c.PredW[s]
		}
		d = max(d, t)
	}
	return d
}

// checkPlacement fails unless s equals referencePlacement node for node
// and every node starts at the earliest time any of the P processors
// offers it: replaying s in priority order, its start must equal the
// minimum over all processors of max(ready, arrival) at its turn.
// Processors nothing has run on yet all offer the same start, so the
// lowest-numbered one stands for them.
func checkPlacement(t *testing.T, c *dag.CSR, procs int, s *sched.Schedule) {
	t.Helper()
	v := c.NumNodes()
	proc, start, finish := referencePlacement(t, c, procs)
	for n := range v {
		got := s.Of(dag.NodeID(n))
		if got.Proc != int(proc[n]) || got.Start != start[n] || got.Finish != finish[n] {
			t.Fatalf("procs %d, node %d: placed %+v, reference proc %d start %v finish %v",
				procs, n, got, proc[n], start[n], finish[n])
		}
	}

	l, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	P := procs
	if P <= 0 || P > v {
		P = v
	}
	ready := make([]float64, P)
	clear(proc)
	clear(finish)
	opened := 0 // processors 0..opened-1 have run something
	for _, n := range buildPriorityOrder(l, v, nil) {
		got := s.Of(dag.NodeID(n))
		earliest := math.Inf(1)
		for q := 0; q <= opened && q < P; q++ {
			earliest = min(earliest, max(ready[q], arrivalOn(c, proc, finish, n, int32(q))))
		}
		if got.Start != earliest {
			t.Fatalf("procs %d, node %d: starts at %v on processor %d, earliest offer %v",
				procs, n, got.Start, got.Proc, earliest)
		}
		proc[n], finish[n] = int32(got.Proc), got.Finish
		ready[got.Proc] = got.Finish
		opened = max(opened, got.Proc+1)
	}
}

// placementCSRs are the graphs the placement checks run on:
// TestSpliceBalanceLayered's shapes, hierGraphs, the oracle corpus and
// the FuzzHierEdgeList seeds.
func placementCSRs(t *testing.T) map[string]*dag.CSR {
	t.Helper()
	out := map[string]*dag.CSR{}
	for _, opts := range spliceShapes {
		c, err := workload.LayeredCSR(opts)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("layered/v%d/seed%d/w%d", opts.V, opts.Seed, opts.Width)] = c
	}
	for name, g := range hierGraphs(t) {
		out["hier/"+name] = dag.BuildCSR(g)
	}
	for _, inst := range schedtest.OracleCorpus() {
		out["corpus/"+inst.Name] = dag.BuildCSR(inst.Graph)
	}
	for i, seed := range hierEdgeListSeeds {
		c, err := dag.StreamEdgeList(strings.NewReader(seed.text))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fuzzseed/%d", i)] = c
	}
	return out
}

// TestHierMatchesReferencePlacement pins ScheduleCSR to
// referencePlacement node for node — processor, start and finish — and
// checks that every node starts at the earliest time any processor
// offers it, at procs 1, 2, 3, 8, v and 0 (one processor per node).
func TestHierMatchesReferencePlacement(t *testing.T) {
	for name, c := range placementCSRs(t) {
		t.Run(name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 3, 8, c.NumNodes(), 0} {
				s, err := NewHierarchical(HierOptions{}).ScheduleCSR(c, procs)
				if err != nil {
					t.Fatal(err)
				}
				checkPlacement(t, c, procs, s)
			}
		})
	}
}

// TestHierUnboundedForkJoin schedules a width-10⁵ fork-join at procs 0.
// One processor per node lets every spoke start as soon as the fork's
// message arrives, so the makespan is the critical path with every
// message paid. The pass costs O(e) there: the join's candidates are
// its 10⁵ parents' processors, each priced in O(1). The schedule's
// processor count is the number of processors it used, so Balance is
// taken over them.
func TestHierUnboundedForkJoin(t *testing.T) {
	const (
		width                   = 100_000
		entry, spoke, exit, msg = 2.0, 4.0, 2.0, 3.0
	)
	v := width + 2
	nodeW := make([]float64, v)
	nodeW[0], nodeW[v-1] = entry, exit
	var from, to []int32
	for i := 1; i <= width; i++ {
		nodeW[i] = spoke
		from, to = append(from, 0, int32(i)), append(to, int32(i), int32(v-1))
	}
	c, err := dag.FinishCSR(nodeW, from, to, nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewHierarchical(HierOptions{}).ScheduleCSR(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFlat(c, s); err != nil {
		t.Fatal(err)
	}
	if got, bound := s.Length(), entry+msg+spoke+msg+exit; got > bound {
		t.Fatalf("makespan %v, want at most the paid critical path %v", got, bound)
	}
	busy := make([]float64, v)
	var total, most float64
	for n := range v {
		p := s.Of(dag.NodeID(n))
		busy[p.Proc] += p.Finish - p.Start
		total += p.Finish - p.Start
		most = max(most, busy[p.Proc])
	}
	if want := most / (total / float64(s.ProcsUsed())); s.Balance() != want {
		t.Fatalf("balance %v, want %v over the %d processors used", s.Balance(), want, s.ProcsUsed())
	}
}

// TestHierOverflowIsBadWeight checks that a finish time overflowing to
// +Inf is an error matching dag.ErrBadWeight, not a schedule.
func TestHierOverflowIsBadWeight(t *testing.T) {
	c, err := dag.FinishCSR([]float64{1e308, 1e308}, []int32{0}, []int32{1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 0} {
		if _, err := NewHierarchical(HierOptions{}).ScheduleCSR(c, procs); !errors.Is(err, dag.ErrBadWeight) {
			t.Fatalf("procs %d: error %v, want one matching dag.ErrBadWeight", procs, err)
		}
	}
}
