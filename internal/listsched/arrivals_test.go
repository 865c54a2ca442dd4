package listsched

import (
	"math/rand"
	"testing"

	"fastsched/internal/dag"
)

// randomCSR is a random DAG with v nodes, IDs in topological order,
// each forward edge present with probability 0.3, and node and edge
// weights small integers, so arrivals tie often.
func randomCSR(rng *rand.Rand, v int) *dag.CSR {
	g := dag.New(v)
	for range v {
		g.AddNode("", float64(rng.Intn(4)))
	}
	for j := range v {
		for i := range j {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), float64(rng.Intn(4)))
			}
		}
	}
	return dag.BuildCSR(g)
}

// directDAT is n's data arrival on q by definition: the latest parent
// finish plus the message cost, which a parent on q does not pay.
func directDAT(c *dag.CSR, proc []int32, finish []float64, n, q int) float64 {
	d := 0.0
	for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
		arr := finish[c.PredFrom[s]]
		if int(proc[c.PredFrom[s]]) != q {
			arr += c.PredW[s]
		}
		d = max(d, arr)
	}
	return d
}

// TestStartOnMatchesDirectWalk checks the three-term kernel against the
// definition it replaces, max(ready, DAT) with DAT a walk over the
// predecessors, on random partial append-only schedules. Some nodes sit
// on processor -1, which is never a candidate and always pays its
// message. It then checks the insertion form, DAT.On, against the same
// walk on schedules far from append-only: every node on a random
// processor with a random finish, so parents finish in any order.
func TestStartOnMatchesDirectWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := range 300 {
		v, procs := 2+rng.Intn(30), 1+rng.Intn(5)
		c := randomCSR(rng, v)
		proc := make([]int32, v)
		finish := make([]float64, v)
		ready := make([]float64, procs)
		dat := func(n, q int) float64 { return directDAT(c, proc, finish, n, q) }
		// Nodes in ID order are a topological order: place each one after
		// checking every processor's price.
		for n := range v {
			a := ArrivalsOf(c, n, proc, finish)
			for q := range procs {
				if got, want := a.StartOn(q, ready[q]), max(ready[q], dat(n, q)); got != want {
					t.Fatalf("trial %d: node %d on %d: StartOn %v, direct walk %v", trial, n, q, got, want)
				}
			}
			if q := rng.Intn(procs + 1); q == procs {
				proc[n], finish[n] = -1, dat(n, -1)+c.NodeW[n]
			} else {
				proc[n], finish[n] = int32(q), a.StartOn(q, ready[q])+c.NodeW[n]
				ready[q] = finish[n]
			}
		}
	}

	pairs := 0
	for trial := range 3000 {
		v, procs := 2+rng.Intn(30), 1+rng.Intn(6)
		c := randomCSR(rng, v)
		proc := make([]int32, v)
		finish := make([]float64, v)
		for n := range v {
			proc[n], finish[n] = int32(rng.Intn(procs)), float64(rng.Intn(12))
		}
		for n := range v {
			d := DATOf(c, n, proc, finish)
			for q := range procs {
				if got, want := d.On(q), directDAT(c, proc, finish, n, q); got != want {
					t.Fatalf("trial %d: node %d on %d: DAT.On %v, direct walk %v", trial, n, q, got, want)
				}
				pairs++
			}
		}
	}
	if pairs < 100000 {
		t.Fatalf("only %d (node, processor) pairs compared", pairs)
	}
}

// TestSchedulePairsRejectsCycle gives the pair loop a two-node cycle,
// which no plan constructor lets through: no node is ever ready.
func TestSchedulePairsRejectsCycle(t *testing.T) {
	c := &dag.CSR{
		PredOff: []int32{0, 1, 2}, PredFrom: []int32{1, 0}, PredW: []float64{0, 0},
		SuccOff: []int32{0, 1, 2}, SuccTo: []int32{1, 0}, SuccW: []float64{0, 0},
		NodeW: []float64{1, 1},
	}
	if _, err := SchedulePairs("cycle", c, 2, func(Pair, Pair) bool { return false }); err == nil {
		t.Fatal("a cyclic CSR was scheduled")
	}
}
