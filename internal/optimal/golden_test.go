package optimal

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
)

var update = flag.Bool("update", false, "rewrite testdata/solver.golden")

// goldenCase is one serial solve the golden pins.
type goldenCase struct {
	name  string
	g     *dag.Graph
	procs int
}

// goldenCases are every oracle-corpus cell at its own processor count,
// and small random DAGs (v <= 12) at 1, 2 and 3 processors. The small
// graphs insert their edges in a shuffled order, so successor lists are
// not sorted by child and parent lists are not ascending, and every
// third one draws zero and fractional weights so starts tie.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, in := range schedtest.OracleCorpus() {
		out = append(out, goldenCase{in.Name, in.Graph, in.Procs})
	}
	rng := rand.New(rand.NewSource(28))
	ws := []float64{0, 0.5, 1, 1.25, 2, 3, 7}
	for i := range 24 {
		v := 3 + rng.Intn(10)
		weight := func() float64 { return float64(1 + rng.Intn(9)) }
		if i%3 == 2 {
			weight = func() float64 { return ws[rng.Intn(len(ws))] }
		}
		g := dag.New(v)
		for range v {
			g.AddNode("", weight())
		}
		schedtest.AddShuffledEdges(rng, g, 0.15+0.35*rng.Float64(), weight)
		for _, procs := range []int{1, 2, 3} {
			out = append(out, goldenCase{fmt.Sprintf("small/%d/v%d", i, v), g, procs})
		}
	}
	return out
}

// TestSolverGolden pins the serial solver on goldenCases: the canonical
// schedule (each node's processor and the bits of its start and finish)
// and Report.Expansions, which at Parallelism 1 is deterministic. A
// change that moves the search onto another representation of the same
// graph must leave testdata/solver.golden byte-identical; regenerate it
// with go test -update only when the search is meant to change.
func TestSolverGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		s := &Solver{Parallelism: 1}
		out, rep, err := s.Solve(c.g, c.procs)
		if err != nil {
			t.Fatalf("%s procs %d: %v", c.name, c.procs, err)
		}
		if !rep.Proven {
			t.Fatalf("%s procs %d: not proven", c.name, c.procs)
		}
		fmt.Fprintf(&b, "%s procs %d expansions %d best %v\n", c.name, c.procs, rep.Expansions, rep.Best)
		for n := range dag.NodeID(c.g.NumNodes()) {
			pl := out.Of(n)
			fmt.Fprintf(&b, "  %d p%d %016x %016x\n", n, pl.Proc,
				math.Float64bits(pl.Start), math.Float64bits(pl.Finish))
		}
	}
	path := filepath.Join("testdata", "solver.golden")
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
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("solver golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("solver golden has %d lines, want %d", len(gl), len(wl))
	}
}
