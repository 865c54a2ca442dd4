package dag_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"
	"testing/iotest"

	"fastsched/internal/dag"
	"fastsched/internal/workload"
)

// TestStreamEdgeListOracleAtScale holds the edge-list reader to the
// field-split oracle on a layered graph of FASTSCHED_SCALE_V nodes
// (default 20k, 5k under -short): once as generated, where every line
// takes the canonical pass, and once rewritten with comments, tabs,
// CRLF endings and exponent-form weights interleaved, where the two
// paths alternate line by line. Every CSR array must match bit for bit,
// and the rewritten text must give the graph the original does.
func TestStreamEdgeListOracleAtScale(t *testing.T) {
	checkEdgeListOracleAtScale(t, func(r io.Reader) io.Reader { return r })
}

// TestStreamEdgeListChunkedOracleAtScale is the same check with the
// reader reading through iotest.OneByteReader, where every line crosses
// a refill and so takes the fallback; through iotest.HalfReader, where
// the few lines that cross a refill take it among canonical ones; and
// 7 bytes at a time, where the window ends inside a line after almost
// every line. The oracle reads the whole text at once.
func TestStreamEdgeListChunkedOracleAtScale(t *testing.T) {
	checkEdgeListOracleAtScale(t, iotest.OneByteReader, iotest.HalfReader, dag.Chunked(7))
}

// checkEdgeListOracleAtScale reads both texts through each of wraps.
func checkEdgeListOracleAtScale(t *testing.T, wraps ...func(io.Reader) io.Reader) {
	t.Helper()
	v := 20000
	if s := os.Getenv("FASTSCHED_SCALE_V"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 1 {
			v = n
		}
	}
	if testing.Short() {
		v = 5000
	}
	var buf bytes.Buffer
	if _, _, err := workload.WriteLayeredEdgeList(&buf, workload.LayeredOpts{V: v, Seed: 29}); err != nil {
		t.Fatal(err)
	}
	canonical := buf.Bytes()
	var first *dag.CSR
	for _, text := range [][]byte{canonical, interleaveFallbackLines(canonical)} {
		want, err := dag.StreamEdgeListOracle(bytes.NewReader(text), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrap := range wraps {
			got, err := dag.StreamEdgeList(wrap(bytes.NewReader(text)))
			if err != nil {
				t.Fatal(err)
			}
			dag.CompareCSR(t, want, got)
			if first == nil {
				first = got
			} else {
				dag.CompareCSR(t, first, got)
			}
		}
	}
}

// interleaveFallbackLines rewrites an edge list line by line, cycling
// through five forms: the line as it is, after a comment line, with a
// tab for its first space, with a CRLF ending, and with its last token
// — the weight — in exponent form.
func interleaveFallbackLines(text []byte) []byte {
	var out bytes.Buffer
	for i, line := range bytes.Split(bytes.TrimSuffix(text, []byte{'\n'}), []byte{'\n'}) {
		end := "\n"
		switch i % 5 {
		case 1:
			fmt.Fprintf(&out, "# line %d\n", i)
		case 2:
			line = bytes.Replace(line, []byte{' '}, []byte{'\t'}, 1)
		case 3:
			end = "\r\n"
		case 4:
			if j := bytes.LastIndexByte(line, ' '); j >= 0 {
				line = fmt.Appendf(nil, "%s %se0", line[:j], line[j+1:])
			}
		}
		out.Write(line)
		out.WriteString(end)
	}
	return out.Bytes()
}
