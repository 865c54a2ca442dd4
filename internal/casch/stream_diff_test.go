package casch

import (
	"bytes"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// TestStreamingIngestDifferential pins the serving-path ingest
// contract across the whole registry: a graph loaded through the
// streaming CSR reader (dag.StreamSTG → ToGraph) must produce a
// bit-identical schedule to the same bytes through dag.ReadSTG, for
// every algorithm and several workload shapes. The dag-level tests
// prove both match the map-based oracle reader; this one proves
// nothing downstream — iteration order, tie-breaks, seeded searches —
// can tell the two entry points apart.
func TestStreamingIngestDifferential(t *testing.T) {
	graphs := make(map[string]*dag.Graph)
	g, err := workload.GaussElim(5, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	graphs["gauss"] = g
	if g, err = workload.Random(workload.RandomOpts{V: 120, Seed: 21, MeanInDegree: 4}); err != nil {
		t.Fatal(err)
	}
	graphs["random"] = g
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	graphs["layered"] = c.ToGraph()

	const defaultComm = 2
	for wname, orig := range graphs {
		var buf bytes.Buffer
		if err := dag.WriteSTG(&buf, orig); err != nil {
			t.Fatal(err)
		}
		legacy, err := dag.ReadSTG(bytes.NewReader(buf.Bytes()), defaultComm)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := dag.StreamSTG(bytes.NewReader(buf.Bytes()), defaultComm)
		if err != nil {
			t.Fatal(err)
		}
		sg := streamed.ToGraph()
		for _, name := range AlgorithmNames() {
			if name == "opt" {
				continue // exponential beyond ~20 tasks; covered by its own tests
			}
			t.Run(wname+"/"+name, func(t *testing.T) {
				a, err := NewScheduler(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewScheduler(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				want, err := a.Schedule(legacy, 4)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.Schedule(sg, 4)
				if err != nil {
					t.Fatal(err)
				}
				if got.Length() != want.Length() {
					t.Fatalf("length %v != %v", got.Length(), want.Length())
				}
				for n := 0; n < legacy.NumNodes(); n++ {
					wp, gp := want.Of(dag.NodeID(n)), got.Of(dag.NodeID(n))
					if gp != wp {
						t.Fatalf("node %d: %+v != %+v", n, gp, wp)
					}
				}
			})
		}
	}
}
