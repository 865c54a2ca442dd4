package dag

import (
	"strings"
	"testing"
)

// FuzzStreamSTG differentially fuzzes the streaming STG reader against
// the map-based oracle: both must agree on acceptance, and on accepted
// inputs the streamed CSR must be bit-identical to the oracle graph's
// and ReadSTG must return a graph equal to it slot for slot. Seeded with the
// FuzzReadSTG corpus — including the header-OOM crasher
// ("000002000000 v1\n"), which must fail fast without allocating for
// the declared count.
func FuzzStreamSTG(f *testing.F) {
	f.Add("3\n0 1 0\n1 2 1 0\n2 3 1 1\n")
	f.Add("1\n0 0 0\n")
	f.Add("# comment\n2\n0 1 0\n1 1 1 0\n")
	f.Add("")
	f.Add("not-a-number\n")
	f.Add("2\n0 1 0\n1 1 1 1\n") // self-predecessor
	f.Add("000002000000 v1\n")   // FuzzReadSTG OOM crasher
	f.Add("4\n3 4 2 2 1\n2 3 1 0\n1 2 1 0\n0 1 0\n")
	f.Add("2\n0 1 0\n1 1e309 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, errOracle := readSTGOracle(strings.NewReader(input), 1)
		c, errStream := StreamSTG(strings.NewReader(input), 1)
		if (errOracle == nil) != (errStream == nil) {
			t.Fatalf("acceptance diverges: oracle=%v stream=%v", errOracle, errStream)
		}
		ca, errArena := StreamSTGArena(strings.NewReader(input), 1, NewScaleArena())
		if (errStream == nil) != (errArena == nil) {
			t.Fatalf("arena acceptance diverges: stream=%v arena=%v", errStream, errArena)
		}
		if errStream != nil && errArena.Error() != errStream.Error() {
			t.Fatalf("arena error text diverges:\n  %v\n  %v", errStream, errArena)
		}
		if errStream == nil {
			compareCSR(t, c, ca)
		}
		if errOracle != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted stream CSR fails validation: %v", err)
		}
		read, err := ReadSTG(strings.NewReader(input), 1)
		if err != nil {
			t.Fatalf("ReadSTG rejects what StreamSTG accepts: %v", err)
		}
		graphsEqual(t, read, g)
		want := BuildCSR(g)
		if c.NumNodes() != want.NumNodes() || c.NumEdges() != want.NumEdges() {
			t.Fatalf("shape (%d,%d) != (%d,%d)", c.NumNodes(), c.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for i := range want.PredOff {
			if c.PredOff[i] != want.PredOff[i] || c.SuccOff[i] != want.SuccOff[i] {
				t.Fatalf("offsets diverge at node %d", i)
			}
		}
		for i := range want.PredFrom {
			if c.PredFrom[i] != want.PredFrom[i] || c.PredW[i] != want.PredW[i] ||
				c.SuccTo[i] != want.SuccTo[i] || c.SuccW[i] != want.SuccW[i] {
				t.Fatalf("arenas diverge at slot %d", i)
			}
		}
		for n := range want.NodeW {
			if c.NodeW[n] != want.NodeW[n] {
				t.Fatalf("node %d weight %v != %v", n, c.NodeW[n], want.NodeW[n])
			}
		}
	})
}

// FuzzStreamEdgeList drives the edge-list reader with arbitrary text:
// never panic, and accepted graphs must validate.
func FuzzStreamEdgeList(f *testing.F) {
	f.Add("v 2\nn 1\nn 2\ne 0 1 3\n")
	f.Add("v 1\nn 0\n")
	f.Add("# c\nv 3\nn 1\nn 1\ne 0 1 1\nn 1\ne 0 2 2\ne 1 2 1\n")
	f.Add("")
	f.Add("v 1000000000\n")
	f.Add("v 2\nn 1\nn 1\ne 1 0 1\ne 0 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		c, err := StreamEdgeList(strings.NewReader(input))
		ca, errArena := StreamEdgeListArena(strings.NewReader(input), NewScaleArena())
		if (err == nil) != (errArena == nil) {
			t.Fatalf("arena acceptance diverges: stream=%v arena=%v", err, errArena)
		}
		if err != nil && errArena.Error() != err.Error() {
			t.Fatalf("arena error text diverges:\n  %v\n  %v", err, errArena)
		}
		if err != nil {
			return
		}
		compareCSR(t, c, ca)
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted edge list fails validation: %v", err)
		}
		if err := c.ToGraph().Validate(); err != nil {
			t.Fatalf("materialized graph fails validation: %v", err)
		}
	})
}
