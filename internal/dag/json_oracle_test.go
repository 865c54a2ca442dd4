package dag

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// readJSONReflect is ReadJSON as it was built on encoding/json, kept as
// the differential oracle for the one-pass decoder: a json.Decoder into
// the file form, then buildReflect.
func readJSONReflect(r io.Reader) (*Graph, string, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, "", fmt.Errorf("dag: decode: %w", err)
	}
	g, err := buildReflect(&jg)
	return g, jg.Name, err
}

// buildReflect is the file form's build as it was before the decoder
// built a CSR: the dense-id check, AddNode/AddEdge in file order and
// Validate, with AddEdge growing each list on its own.
func buildReflect(jg *jsonGraph) (*Graph, error) {
	v := len(jg.Nodes)
	seen := make([]bool, v)
	nodes := make([]jsonNode, v)
	for _, n := range jg.Nodes {
		if n.ID < 0 || n.ID >= v {
			return nil, fmt.Errorf("dag: node id %d out of range [0,%d)", n.ID, v)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("dag: duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
		nodes[n.ID] = n
	}
	g := New(v)
	for _, n := range nodes {
		g.AddNode(n.Label, n.Weight)
	}
	for _, e := range jg.Edges {
		if e.From < 0 || e.From >= v || e.To < 0 || e.To >= v {
			return nil, fmt.Errorf("dag: edge endpoint out of range: %d -> %d", e.From, e.To)
		}
		if err := g.AddEdge(NodeID(e.From), NodeID(e.To), e.Weight); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// sameGraph reports whether a and b hold the same nodes (labels and
// weight bits) and the same successor and predecessor lists in the same
// stored order — everything a scheduler's tie-breaks can see.
func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	sameEdges := func(x, y []Edge) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].From != y[i].From || x[i].To != y[i].To ||
				math.Float64bits(x[i].Weight) != math.Float64bits(y[i].Weight) {
				return false
			}
		}
		return true
	}
	for i, n := range a.Nodes() {
		m, id := b.Node(NodeID(i)), NodeID(i)
		if n.ID != m.ID || n.Label != m.Label || math.Float64bits(n.Weight) != math.Float64bits(m.Weight) ||
			!sameEdges(a.Succ(id), b.Succ(id)) || !sameEdges(a.Pred(id), b.Pred(id)) {
			return false
		}
	}
	return true
}

// readJSONParitySeeds are graph files a naive one-pass decoder gets
// wrong.
var readJSONParitySeeds = []string{
	// Keys match exactly, then case-folded (ſ folds to s; ı does not fold to i).
	`{"NAME":"g","NODES":[{"ID":0,"Weight":1,"LABEL":"a"}],"Edges":[]}`,
	`{"nodeſ":[{"id":0,"weight":1}],"edgeſ":[]}`,
	`{"nodes":[{"ıd":1,"weight":1}]}`,
	`{"n\u0061me":"esc","n\u006fdes":[{"id":0,"weight":1}]}`,
	// Repeated nodes/edges keys decode into the elements already read.
	`{"nodes":[{"id":1,"weight":2,"label":"x"},{"id":0,"weight":1}],"nodes":[{"id":0}]}`,
	`{"nodes":[{"id":0,"weight":1},{"id":1,"weight":2},{"id":2,"weight":3}],"nodes":[{"id":1}],"nodes":[{"id":0},{},{"id":2}]}`,
	`{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":1,"weight":4}],"edges":[{"weight":2}]}`,
	`{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"nodes":[],"nodes":[{"id":1}]}`,
	`{"name":"a","name":"b","nodes":[{"id":0,"weight":1}]}`,
	// null members and a null graph.
	`{"name":null,"nodes":null,"edges":null}`,
	`{"nodes":[null,{"id":null,"label":null,"weight":null}],"edges":[null]}`,
	`{"nodes":[{"id":0,"weight":1}],"nodes":null}`,
	`null`,
	`{}`,
	// Integer fields given a fraction or an exponent, out-of-range numbers.
	`{"nodes":[{"id":1.0,"weight":1}]}`,
	`{"nodes":[{"id":0e0,"weight":1}]}`,
	`{"nodes":[{"id":0,"weight":1e400}]}`,
	`{"nodes":[{"id":0,"weight":1e-400}]}`,
	`{"nodes":[{"id":0,"weight":-0}]}`,
	`{"nodes":[{"id":9223372036854775808,"weight":1}]}`,
	`{"nodes":[{"id":-9223372036854775808,"weight":1}]}`,
	`{"nodes":[{"id":0,"weight":"1"}]}`,
	`{"nodes":{"id":0}}`,
	`{"nodes":[5]}`,
	`{"name":5,"nodes":[]}`,
	`[]`,
	`"graph"`,
	// Escaped labels and labels with invalid UTF-8.
	`{"name":"\u00e9\ud800","nodes":[{"id":0,"weight":1,"label":"a\"b\\c\/\u00e9\ud83d\ude00\ud800\n"}]}`,
	"{\"nodes\":[{\"id\":0,\"weight\":1,\"label\":\"\xff\xfe\xc3(ok\"}]}",
	// Trailing bytes after the value stay ignored; syntax errors anywhere win.
	`{"nodes":[{"id":0,"weight":1}]} trailing garbage {`,
	`null x`,
	`{"nodes":[{"id":"x"}],"edges":}`,
	`{"nodes":[{"id":0,"weight":1},]}`,
	`{"nodes":[{"id":0,"weight":01}]}`,
	`{"nodes":[{"id":0,"weight":1.}]}`,
	`{"nodes":[{"id":0,"weight":1}],"x":[1,{"y":tru}]}`,
	"{\"nodes\":[{\"id\":0,\"weight\":1,\"label\":\"a\x01\"}]}",
	`{"nodes":[],"x":"\q"}`,
	`  `,
}

// checkReadJSONParity decodes input with ReadJSON and its reflective
// oracle and fails unless both accept it with the same name and graph,
// or both reject it with the same error (see sameOutcome). It returns
// ReadJSON's error.
func checkReadJSONParity(t *testing.T, input string) error {
	t.Helper()
	g, name, err := ReadJSON(strings.NewReader(input))
	og, oname, oerr := readJSONReflect(strings.NewReader(input))
	sameOutcome(t, input, g, err, og, oerr)
	if err == nil && name != oname {
		t.Fatalf("name %q, reflect %q for %q", name, oname, input)
	}
	return err
}

// sameOutcome fails unless the one-pass decode of input and the
// reflective one both accept it with the same graph, or both reject it
// with the same error. A decode error's text is the scanner's, not
// encoding/json's, so for one only the "dag: decode:" prefix must
// agree; every later error must read the same. An accepted graph's CSR
// must be the checked flatten of the graph itself.
func sameOutcome(t *testing.T, input string, g *Graph, err error, og *Graph, oerr error) {
	t.Helper()
	if (err == nil) != (oerr == nil) {
		t.Fatalf("acceptance differs for %q:\none-pass: %v\nreflect:  %v", input, err, oerr)
	}
	if err != nil {
		const decode = "dag: decode: "
		isDecode := strings.HasPrefix(oerr.Error(), decode)
		if strings.HasPrefix(err.Error(), decode) != isDecode || !isDecode && err.Error() != oerr.Error() {
			t.Fatalf("error differs for %q:\none-pass: %v\nreflect:  %v", input, err, oerr)
		}
		return
	}
	if !sameGraph(g, og) {
		t.Fatalf("decoded graph differs for %q", input)
	}
	var flat CSR
	if err := flatten(&flat, g, true); err != nil {
		t.Fatalf("decoded graph fails the checked flatten for %q: %v", input, err)
	}
	compareCSR(t, &flat, g.csr)
}

// TestReadJSONParity runs the seeds, plus encoding/json's nesting limit
// at and one past its edge (too large to be useful fuzz seeds).
func TestReadJSONParity(t *testing.T) {
	for _, in := range readJSONParitySeeds {
		checkReadJSONParity(t, in)
	}
	for _, depth := range []int{9999, 10000} {
		checkReadJSONParity(t, `{"nodes":[],"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`)
	}
}

// faultyGraph draws a small graph in the file form with a few faults,
// each at a random place in file order: node IDs out of range or
// repeated, edge endpoints out of range, self-loops, duplicate edges,
// negative node and edge weights, and edges that close a cycle. One
// graph in eight has a hub whose out-degree crosses dupScanThreshold,
// so duplicates land on both sides of AddEdge's two duplicate checks.
func faultyGraph(rng *rand.Rand) *jsonGraph {
	v := 1 + rng.Intn(8)
	hub := rng.Intn(8) == 0
	if hub {
		v = dupScanThreshold + 2 + rng.Intn(8)
	}
	weight := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return -float64(1+rng.Intn(3)) / 2
		case 1:
			return 0
		}
		return float64(rng.Intn(40)) / 8
	}
	jg := &jsonGraph{}
	for _, id := range rng.Perm(v) {
		switch rng.Intn(40) {
		case 0:
			id = []int{-1, v, v + 3}[rng.Intn(3)]
		case 1:
			id = rng.Intn(v)
		}
		jg.Nodes = append(jg.Nodes, jsonNode{ID: id, Weight: weight()})
	}
	// Edges run forward in a random topological order; faults are
	// inserted among them.
	topo := rng.Perm(v)
	edge := func(from, to int) jsonEdge { return jsonEdge{From: from, To: to, Weight: weight()} }
	if hub {
		for i := 1; i < v; i++ {
			jg.Edges = append(jg.Edges, edge(topo[0], topo[i]))
		}
	}
	for k := rng.Intn(2 * v); k > 0 && v > 1; k-- {
		if i, j := rng.Intn(v), rng.Intn(v); i != j {
			jg.Edges = append(jg.Edges, edge(topo[min(i, j)], topo[max(i, j)]))
		}
	}
	rng.Shuffle(len(jg.Edges), func(i, j int) { jg.Edges[i], jg.Edges[j] = jg.Edges[j], jg.Edges[i] })
	for k := 1 + rng.Intn(3); k > 0; k-- {
		at := rng.Intn(len(jg.Edges) + 1)
		var e jsonEdge
		switch rng.Intn(5) {
		case 0: // endpoint out of range
			e = edge(rng.Intn(v), []int{-1, v, v + 2}[rng.Intn(3)])
			if rng.Intn(2) == 0 {
				e.From, e.To = e.To, e.From
			}
		case 1: // self-loop, in range or not
			n := rng.Intn(v+1) - rng.Intn(2)
			e = edge(n, n)
		case 2, 3: // repeat an edge, or reverse it to close a cycle
			if len(jg.Edges) == 0 {
				continue
			}
			old := jg.Edges[rng.Intn(len(jg.Edges))]
			e = edge(old.From, old.To)
			at = max(at, rng.Intn(len(jg.Edges)+1))
			if rng.Intn(2) == 0 {
				e.From, e.To = e.To, e.From
			}
		case 4: // a back edge, closing a cycle when a path runs forward
			if v < 2 {
				continue
			}
			i := 1 + rng.Intn(v-1)
			e = edge(topo[i], topo[rng.Intn(i)])
		}
		jg.Edges = append(jg.Edges[:at], append([]jsonEdge{e}, jg.Edges[at:]...)...)
	}
	return jg
}

// appendGraphJSON writes jg in the file form, as compact JSON.
func appendGraphJSON(b []byte, jg *jsonGraph) []byte {
	b = append(b, `{"nodes":[`...)
	for i, n := range jg.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"id":`...), int64(n.ID), 10)
		b = strconv.AppendFloat(append(b, `,"weight":`...), n.Weight, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, e := range jg.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"from":`...), int64(e.From), 10)
		b = strconv.AppendInt(append(b, `,"to":`...), int64(e.To), 10)
		b = strconv.AppendFloat(append(b, `,"weight":`...), e.Weight, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// TestReadJSONErrorParity decodes 100,000 seeded faulty graphs and
// builds each with the reflective build: every rejection must carry
// its error text, in its precedence, and every acceptance its graph.
func TestReadJSONErrorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	kinds := []error{ErrEdgeEndpoint, ErrSelfLoop, ErrDuplicateEdge, ErrBadWeight, ErrCycle, nil}
	rejected := map[error]int{}
	var buf []byte
	const graphs = 100_000
	for i := 0; i < graphs; i++ {
		jg := faultyGraph(rng)
		buf = appendGraphJSON(buf[:0], jg)
		g, _, err := ReadJSON(bytes.NewReader(buf))
		og, oerr := buildReflect(jg)
		sameOutcome(t, string(buf), g, err, og, oerr)
		for _, kind := range kinds {
			if err != nil && (kind == nil || errors.Is(err, kind)) {
				rejected[kind]++ // nil counts the node-ID errors
				break
			}
		}
	}
	for _, kind := range kinds {
		if rejected[kind] < graphs/100 {
			t.Errorf("only %d of %d graphs rejected as %v; the generator misses a fault", rejected[kind], graphs, kind)
		}
	}
}
