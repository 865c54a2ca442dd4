// Registry golden: every registry algorithm's schedule, hashed per
// graph over a fixed corpus and processor counts, pinned in
// testdata/registry.golden. A refactor that changes no schedule leaves
// the file byte-identical; regenerate it with go test -update only when
// a schedule is meant to change.
package schedtest_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenProcs are the processor counts every algorithm runs at; 0 asks
// for an unbounded machine.
var goldenProcs = []int{0, 1, 2, 3, 4, 16}

// namedGraph is one golden line's graphs: a single named graph, or a
// family hashed together.
type namedGraph struct {
	name string
	gs   []*dag.Graph
}

// goldenCorpus is the oracle corpus; §5.2 random graphs at v = 20, 60
// and 150 rescaled to CCR 0.1, 1 and 10; Gauss-8; FFT-16; a random
// layered graph with v = 200; and, as one family, 300 small random
// DAGs whose weights are drawn from zero, 1e-10 and short decimals, so
// zero-length tasks tie within the timelines' tolerances and float
// sums round.
func goldenCorpus(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	one := func(name string, g *dag.Graph) { out = append(out, namedGraph{name, []*dag.Graph{g}}) }
	for _, in := range schedtest.OracleCorpus() {
		one(in.Name, in.Graph)
	}
	for _, v := range []int{20, 60, 150} {
		g, err := workload.Random(workload.RandomOpts{V: v, Seed: 1, MeanInDegree: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, ccr := range []float64{0.1, 1, 10} {
			one(fmt.Sprintf("random/v%d/ccr%g", v, ccr), timing.ScaleCCR(g, ccr))
		}
	}
	db := timing.ParagonLike()
	gauss, err := workload.GaussElim(8, db)
	if err != nil {
		t.Fatal(err)
	}
	fft, err := workload.FFT(16, db)
	if err != nil {
		t.Fatal(err)
	}
	one("gauss/8", gauss)
	one("fft/16", fft)
	one("layered/v200", schedtest.RandomLayered(rand.New(rand.NewSource(1)), 200))

	ws := []float64{0, 0, 0.1, 0.2, 0.3, 0.7, 1, 1e-10, 2.5, 3}
	rng := rand.New(rand.NewSource(99))
	family := namedGraph{name: "tiny-weights/x300"}
	for range 300 {
		v := 2 + rng.Intn(40)
		g := dag.New(v)
		for range v {
			g.AddNode("", ws[rng.Intn(len(ws))])
		}
		density := 0.05 + rng.Float64()*0.3
		for j := range v {
			for i := range j {
				if rng.Float64() < density {
					g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), ws[rng.Intn(len(ws))]*float64(1+rng.Intn(3)))
				}
			}
		}
		family.gs = append(family.gs, g)
	}
	return append(out, family)
}

// TestRegistryGolden hashes, for every registry algorithm but the
// exact solver and every corpus line, the schedules of its graphs at
// each processor count: the algorithm name the schedule reports, then
// each node's processor and the bits of its start and finish.
func TestRegistryGolden(t *testing.T) {
	var b strings.Builder
	for _, ng := range goldenCorpus(t) {
		for _, name := range casch.AlgorithmNames() {
			if name == "opt" {
				continue
			}
			h := sha256.New()
			for _, g := range ng.gs {
				for _, procs := range goldenProcs {
					s, err := casch.NewScheduler(name, 1)
					if err != nil {
						t.Fatal(err)
					}
					out, err := s.Schedule(g, procs)
					if err != nil {
						t.Fatalf("%s on %s, procs %d: %v", name, ng.name, procs, err)
					}
					buf := append([]byte(out.Algorithm), 0)
					for n := range out.NumNodes() {
						pl := out.Of(dag.NodeID(n))
						buf = binary.LittleEndian.AppendUint32(buf, uint32(pl.Proc))
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.Start))
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pl.Finish))
					}
					h.Write(buf)
				}
			}
			fmt.Fprintf(&b, "%s %s %x\n", ng.name, name, h.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "registry.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, want %d", len(gl), len(wl))
		}
	}
}
