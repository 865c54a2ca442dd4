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
		compareCSR(t, BuildCSR(g), c)
	})
}

// FuzzStreamEdgeList holds the edge-list reader, with and without an
// arena, to streamEdgeListOracle, which splits every line into fields:
// both must agree on acceptance and error text, and on an accepted
// input every CSR array must match bit for bit and validate. The seeds
// include every shape the canonical-line pass hands to the field
// split.
func FuzzStreamEdgeList(f *testing.F) {
	f.Add("v 2\nn 1\nn 2\ne 0 1 3\n")
	f.Add("v 1\nn 0\n")
	f.Add("# c\nv 3\nn 1\nn 1\ne 0 1 1\nn 1\ne 0 2 2\ne 1 2 1\n")
	f.Add("")
	f.Add("v 1000000000\n")
	f.Add("v 2\nn 1\nn 1\ne 1 0 1\ne 0 1 1\n")
	f.Add("v 3\nn 007\nn 1\nn 999999999999999\ne 00 1 0\ne 1 2 123456789012345\n")
	f.Add("v 2\nn 1\nn 1\ne 0 5 1\n")           // endpoint not yet declared
	f.Add("v 2\nn 1\nn 1\ne 1 1 1\n")           // self-loop
	f.Add("v 1\nn 1\nn 1\n")                    // more nodes than declared
	f.Add("v 2\nn 1\nn 1\ne 0 1 1\ne 0 1 1\n")  // duplicate edge
	f.Add("v 2\nn 1\nn 1\ne 0\t1 1\n")          // a tab
	f.Add("v 2\nn 1\nn 1\ne 0  1 1\n")          // a double space
	f.Add("v 2\nn 1\nn 1# two\ne 0 1 1#edge\n") // '#' after a token
	f.Add("v 2\r\nn 1\r\nn 1\r\ne 0 1 1\r\n")   // CRLF
	f.Add("v 2\nn +5\nn 1\ne 0 1 +5\n")
	f.Add("v 2\nn -0\nn 1\ne 0 1 -0\n")
	f.Add("v 2\nn 1.5\nn 1\ne 0 1 1.5\n")
	f.Add("v 2\nn 1e3\nn 1\ne 0 1 1e3\n")
	f.Add("v 2\nn 1234567890123456\nn 1\ne 0 1 1234567890123456\n") // a 16-digit run
	f.Add("v 2\nn 1\nn 1\ne 0000000000000000 1 1\n")
	f.Add("v 2\nn 1\nn 99999999999999999999\ne 0 1 18446744073709551617\n") // runs past int64
	f.Add("v 2\nn 1\x00\nn 1\ne 0 1\x00 1\n")                               // NUL
	f.Add("v 2\nn 1\nn 1\ne\u00a00 1 1\n")                                  // U+00A0
	f.Add("v 2\nn 1\nn\u00851\ne 0 1 1\u0085\n")                            // U+0085
	f.Add("v 2\nn 1\nn 1\ne 0 1 NaN\nn Inf\n")
	f.Add("v 2\nn 1\nn 1\ne 0 1 1 \n e 0 1 1\n")
	f.Add("v 1\nn " + strings.Repeat("1", 1<<20) + "\n") // a line over 1 MiB
	f.Fuzz(func(t *testing.T, input string) {
		want, errWant := streamEdgeListOracle(strings.NewReader(input), nil)
		for _, a := range []*ScaleArena{nil, NewScaleArena()} {
			got, err := StreamEdgeListArena(strings.NewReader(input), a)
			if (err == nil) != (errWant == nil) || err != nil && err.Error() != errWant.Error() {
				t.Fatalf("arena %v: reader error %v, oracle %v", a != nil, err, errWant)
			}
			if err == nil {
				compareCSR(t, want, got)
			}
		}
		if errWant != nil {
			return
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("accepted edge list fails validation: %v", err)
		}
		if err := want.ToGraph().Validate(); err != nil {
			t.Fatalf("materialized graph fails validation: %v", err)
		}
	})
}
