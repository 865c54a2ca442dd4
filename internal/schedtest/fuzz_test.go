package schedtest_test

import (
	"errors"
	"math"
	"testing"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// fuzzWeight decodes a weight byte: 0–249 give 0–9, and the reserved
// bytes 250–255 give NaN, +Inf and −1 in turn, the weights Validate
// rejects.
func fuzzWeight(b byte) float64 {
	if b >= 250 {
		return [...]float64{math.NaN(), math.Inf(1), -1}[(b-250)%3]
	}
	return float64(b % 10)
}

// fuzzGraph decodes bytes into a DAG of 1–10 nodes: the first byte
// picks the size, the next v bytes the node weights (fuzzWeight), and
// every following triple an edge between two distinct nodes with a
// fuzzWeight weight. Each edge runs from the smaller ID to the larger,
// so the graph is acyclic by construction; a repeated pair is dropped.
func fuzzGraph(data []byte) *dag.Graph {
	v := 1
	if len(data) > 0 {
		v += int(data[0]) % 10
		data = data[1:]
	}
	g := dag.New(v)
	for n := 0; n < v; n++ {
		w := 1.0
		if n < len(data) {
			w = fuzzWeight(data[n])
		}
		g.AddNode("", w)
	}
	if len(data) > v {
		data = data[v:]
	} else {
		data = nil
	}
	for ; len(data) >= 3; data = data[3:] {
		a, b := dag.NodeID(int(data[0])%v), dag.NodeID(int(data[1])%v)
		if a == b {
			continue
		}
		_ = g.AddEdge(min(a, b), max(a, b), fuzzWeight(data[2]))
	}
	return g
}

// FuzzRegistrySchedules runs every registry algorithm on fuzzed small
// DAGs at 1, 2 and 3 processors and unbounded (0). Each schedule must
// pass the validator, stay inside the bounds schedtest.Conformance
// checks — the dependence and area lower bounds, the work+comm
// envelope, and the processor cap for bounded algorithms — and come out
// bit-identical from a second scheduler built with the same seed. A
// graph with a weight Validate rejects must instead make every
// algorithm return an error matching dag.ErrBadWeight.
func FuzzRegistrySchedules(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3})
	f.Add([]byte{3, 2, 3, 1, 2, 0, 1, 5, 0, 2, 1, 1, 3, 9, 2, 3, 4})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 1, 3, 0, 2, 7, 1, 5, 0, 4, 9, 2, 2, 8, 6, 3, 9, 1})
	f.Add([]byte{5, 0, 0, 4, 0, 0, 0, 1, 0, 0, 2, 9, 1, 3, 9, 2, 4, 0})
	f.Add([]byte{2, 1, 252, 1, 0, 1, 1, 1, 2, 1}) // a -> b -> c with w(b) = -1
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if err := g.Validate(); err != nil {
			if !errors.Is(err, dag.ErrBadWeight) {
				t.Fatalf("fuzzGraph built an invalid graph: %v", err)
			}
			for _, name := range casch.AlgorithmNames() {
				for _, procs := range []int{1, 2, 3, 0} {
					s, err := casch.NewScheduler(name, 1)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Schedule(g, procs); !errors.Is(err, dag.ErrBadWeight) {
						t.Fatalf("%s procs %d: want %v, got %v", name, procs, dag.ErrBadWeight, err)
					}
				}
			}
			return
		}
		l, err := dag.ComputeLevels(g)
		if err != nil {
			t.Fatal(err)
		}
		compCP := 0.0
		for _, s := range l.Static {
			compCP = max(compCP, s)
		}
		for _, name := range casch.AlgorithmNames() {
			for _, procs := range []int{1, 2, 3, 0} {
				var bounded bool
				run := func() *sched.Schedule {
					s, err := casch.NewScheduler(name, 1)
					if err != nil {
						t.Fatal(err)
					}
					bounded = !casch.Unbounded(s.Name())
					out, err := s.Schedule(g, procs)
					if err != nil {
						t.Fatalf("%s procs %d: %v", name, procs, err)
					}
					return out
				}
				out := run()
				if err := sched.Validate(g, out); err != nil {
					t.Fatalf("%s procs %d: %v", name, procs, err)
				}
				length, used := out.Length(), out.ProcsUsed()
				if procs > 0 && bounded && used > procs {
					t.Fatalf("%s: used %d of %d procs", name, used, procs)
				}
				if length > g.TotalWork()+g.TotalComm()+1e-9 {
					t.Fatalf("%s procs %d: length %v beyond work+comm %v", name, procs, length, g.TotalWork()+g.TotalComm())
				}
				if length < compCP-1e-9 {
					t.Fatalf("%s procs %d: length %v beats the dependence bound %v", name, procs, length, compCP)
				}
				if used > 0 && length < g.TotalWork()/float64(used)-1e-9 {
					t.Fatalf("%s procs %d: length %v beats the area bound on %d procs", name, procs, length, used)
				}
				again := run()
				for n := 0; n < g.NumNodes(); n++ {
					if a, b := out.Of(dag.NodeID(n)), again.Of(dag.NodeID(n)); a != b {
						t.Fatalf("%s procs %d: rerun moved node %d: %+v vs %+v", name, procs, n, a, b)
					}
				}
			}
		}
	})
}
