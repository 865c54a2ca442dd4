package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// readJSONReflect is ReadJSON as it was built on encoding/json, kept as
// the differential oracle for the one-pass decoder: a json.Decoder into
// the file form, then the same dense-id check, AddNode/AddEdge in file
// order and Validate, with AddEdge growing each list on its own.
func readJSONReflect(r io.Reader) (*Graph, string, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, "", fmt.Errorf("dag: decode: %w", err)
	}
	v := len(jg.Nodes)
	seen := make([]bool, v)
	nodes := make([]jsonNode, v)
	for _, n := range jg.Nodes {
		if n.ID < 0 || n.ID >= v {
			return nil, "", fmt.Errorf("dag: node id %d out of range [0,%d)", n.ID, v)
		}
		if seen[n.ID] {
			return nil, "", fmt.Errorf("dag: duplicate node id %d", n.ID)
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
			return nil, "", fmt.Errorf("dag: edge endpoint out of range: %d -> %d", e.From, e.To)
		}
		if err := g.AddEdge(NodeID(e.From), NodeID(e.To), e.Weight); err != nil {
			return nil, "", err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, "", err
	}
	return g, jg.Name, nil
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
// oracle and fails unless both reject it or both accept it with the
// same name and graph.
func checkReadJSONParity(t *testing.T, input string) {
	t.Helper()
	g, name, err := ReadJSON(strings.NewReader(input))
	og, oname, oerr := readJSONReflect(strings.NewReader(input))
	if (err == nil) != (oerr == nil) {
		t.Fatalf("acceptance differs for %q:\none-pass: %v\nreflect:  %v", input, err, oerr)
	}
	if err == nil && (name != oname || !sameGraph(g, og)) {
		t.Fatalf("decoded graph differs for %q (name %q vs %q)", input, name, oname)
	}
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
