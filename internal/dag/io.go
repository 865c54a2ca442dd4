package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fastsched/internal/jsonscan"
)

// jsonGraph is the on-disk representation of a Graph.
type jsonGraph struct {
	Name  string     `json:"name,omitempty"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID     int     `json:"id"`
	Label  string  `json:"label,omitempty"`
	Weight float64 `json:"weight"`
	// labelAt and labelEnd place a label the compact pass read in its
	// decode's label buffer. While labelEnd > 0 they hold the label and
	// Label is empty; a label the member walk reads clears them.
	labelAt, labelEnd int
}

type jsonEdge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight"`
}

// WriteJSON serializes the graph to w in a stable, human-diffable JSON
// form, its edges in (from, to) order. name is an optional graph title
// stored in the file.
func WriteJSON(w io.Writer, g *Graph, name string) error {
	return writeJSON(w, g, name, g.Edges())
}

// WriteJSONSlotOrder is WriteJSON with the edges in an order DecodeJSON
// scatters back into g's own successor and predecessor slot orders (see
// slotOrder), so the graph reads back as the same scheduling input,
// under the same content key. Where (from, to) order already does that,
// and for a graph with no such order (only ToGraph can build one), the
// output is WriteJSON's.
func WriteJSONSlotOrder(w io.Writer, g *Graph, name string) error {
	edges, ok := g.slotOrder()
	if !ok {
		edges = g.Edges()
	}
	return writeJSON(w, g, name, edges)
}

// writeJSON writes g's nodes and the given edges in the file form.
func writeJSON(w io.Writer, g *Graph, name string, edges []Edge) error {
	jg := jsonGraph{Name: name}
	for _, n := range g.Nodes() {
		jg.Nodes = append(jg.Nodes, jsonNode{ID: int(n.ID), Label: n.Label, Weight: n.Weight})
	}
	for _, e := range edges {
		jg.Edges = append(jg.Edges, jsonEdge{From: int(e.From), To: int(e.To), Weight: e.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// slotOrder lists g's edges in an order whose file-order scatter
// rebuilds both slot orders: each edge comes after the one before it in
// its parent's successor list and after the one before it in its
// child's predecessor list. Such an order exists for every graph built
// edge by edge (its insertion order) and every decoded one (its file
// order). An edge is ready once it heads both lists, and taking it can
// ready only the next edge of either list. Each parent has at most one
// ready edge, its successor-list head, so a heap of parents takes the
// ready edge with the smallest (from, to) first, and where (from, to)
// order satisfies both lists it is the order produced. ok is false
// when the walk stalls: the two lists' orders contradict each other, or
// the sides disagree.
func (g *Graph) slotOrder() (edges []Edge, ok bool) {
	v := len(g.nodes)
	nextSucc := make([]int, v) // each node's first successor slot not yet listed
	nextPred := make([]int, v) // each node's first predecessor slot not yet listed
	// ready reports whether n's next successor slot is an edge into to
	// that heads to's predecessor list too.
	ready := func(n, to NodeID) bool {
		return nextSucc[n] < len(g.succ[n]) && g.succ[n][nextSucc[n]].To == to && g.valid(to) &&
			nextPred[to] < len(g.pred[to]) && g.pred[to][nextPred[to]].From == n
	}
	h := &i32Heap{}
	for n := range NodeID(v) {
		if len(g.succ[n]) > 0 && ready(n, g.succ[n][0].To) {
			h.push(int32(n))
		}
	}
	edges = make([]Edge, 0, g.ne)
	for h.len() > 0 {
		n := NodeID(h.pop())
		e := g.succ[n][nextSucc[n]]
		edges = append(edges, e)
		nextSucc[n]++
		nextPred[e.To]++
		if s := g.succ[n]; nextSucc[n] < len(s) && ready(n, s[nextSucc[n]].To) {
			h.push(int32(n))
		}
		if p := g.pred[e.To]; nextPred[e.To] < len(p) {
			if from := p[nextPred[e.To]].From; from != n && g.valid(from) && ready(from, e.To) {
				h.push(int32(from))
			}
		}
	}
	return edges, len(edges) == g.ne
}

// ReadJSON parses a graph previously written by WriteJSON. Node IDs in
// the file must be dense (0..v-1) but may appear in any order. It reads
// r to the end and decodes the first JSON value with DecodeJSON; bytes
// after that value are ignored.
func ReadJSON(r io.Reader) (*Graph, string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("dag: read: %w", err)
	}
	return DecodeJSON(jsonscan.New(data))
}

// Field names of the JSON graph form, in jsonGraph/jsonNode/jsonEdge
// order.
var (
	graphFields = []string{"name", "nodes", "edges"}
	nodeFields  = []string{"id", "label", "weight"}
	edgeFields  = []string{"from", "to", "weight"}
)

// DecodeJSON decodes the graph value at the scanner's position, in the
// form WriteJSON writes, and builds the graph (see build). It accepts
// exactly the values encoding/json would decode into the file form's
// structs (see package jsonscan), so a JSON type error such as a
// fractional id is an error here too, and repeated "nodes" or "edges"
// keys decode into the elements already read, in place. A syntax error
// inside the value is returned; one after it is left for the caller to
// find with s.Err.
//
// Each element is first tried in the compact shape WriteJSON's output
// takes once json.Compact strips its blanks (compactNode, compactEdge),
// and walked member by member only where that declines. The file
// form's lists and the label buffer come from decodePool.
func DecodeJSON(s *jsonscan.Scanner) (*Graph, string, error) {
	d := decodePool.Get().(*fileDecode)
	defer d.release()
	switch s.Next() {
	case '{':
		s.Enter('{')
		for i := 0; ; i++ {
			key, ok := s.Member(i)
			if !ok {
				break
			}
			switch jsonscan.Lookup(key, graphFields) {
			case 0:
				if !s.String(&d.Name) {
					note(&d.bad, "name")
				}
			case 1:
				d.Nodes = decodeList(s, d.Nodes, decodeNode, d, "nodes")
			case 2:
				d.Edges = decodeList(s, d.Edges, decodeEdge, d, "edges")
			default:
				s.Skip()
			}
		}
	case 'n':
		s.Skip()
	default:
		s.Skip()
		note(&d.bad, "graph")
	}
	if err := s.Err(); err != nil {
		return nil, "", fmt.Errorf("dag: decode: %w", err)
	}
	if d.bad != "" {
		return nil, "", fmt.Errorf("dag: decode: %s has a value of the wrong JSON type or out of range", d.bad)
	}
	g, err := d.build(string(d.labels))
	if err != nil {
		return nil, "", err
	}
	return g, d.Name, nil
}

// fileDecode is one DecodeJSON call: the file form it fills, the plain
// labels its compact elements held, back to back, and the first field
// holding a value of the wrong type.
type fileDecode struct {
	jsonGraph
	labels []byte
	bad    string
}

// decodePool recycles fileDecodes. One goes back cleared to its lists'
// capacity, so it holds no pointer into a finished decode, and a
// pooled element, even one beyond a list's length that a repeated key
// reaches, decodes as a fresh list's zero element would.
var decodePool = sync.Pool{New: func() any { return new(fileDecode) }}

// release clears d and puts it back in decodePool.
func (d *fileDecode) release() {
	nodes, edges := d.Nodes[:cap(d.Nodes)], d.Edges[:cap(d.Edges)]
	clear(nodes)
	clear(edges)
	*d = fileDecode{jsonGraph: jsonGraph{Nodes: nodes[:0], Edges: edges[:0]}, labels: d.labels[:0]}
	decodePool.Put(d)
}

// note records field as the first bad one.
func note(bad *string, field string) {
	if *bad == "" {
		*bad = field
	}
}

// decodeList decodes a JSON array into list as encoding/json decodes
// into a slice: element i decodes in place into list[i], reusing the
// backing array beyond the current length, and the result is cut to the
// array's length; an empty array or null leaves no backing array. A
// pooled list arrives empty with its capacity zeroed, so it decodes as
// a fresh one.
func decodeList[T any](s *jsonscan.Scanner, list []T, decode func(*jsonscan.Scanner, *T, *fileDecode), d *fileDecode, field string) []T {
	if !s.Enter('[') {
		null := s.Next() == 'n'
		if !null {
			note(&d.bad, field)
		}
		s.Skip()
		if null {
			return nil
		}
		return list
	}
	i := 0
	for ; s.Elem(i); i++ {
		if i < cap(list) {
			list = list[:i+1]
		} else {
			var zero T
			list = append(list[:i], zero)
		}
		decode(s, &list[i], d)
	}
	if i == 0 {
		return nil
	}
	return list[:i]
}

// enterObject opens an object value for a struct destination: null is
// skipped as a no-op and any other value is skipped as a type error.
func enterObject(s *jsonscan.Scanner, bad *string, field string) bool {
	if s.Enter('{') {
		return true
	}
	if s.Next() != 'n' {
		note(bad, field)
	}
	s.Skip()
	return false
}

// decodeNode decodes a node element into n: in the compact shape when
// it has it, by the member walk otherwise.
func decodeNode(s *jsonscan.Scanner, n *jsonNode, d *fileDecode) {
	if used := compactNode(s.Rest(), n, d); used > 0 {
		s.Advance(used)
		return
	}
	if !enterObject(s, &d.bad, "nodes") {
		return
	}
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			return
		}
		switch jsonscan.Lookup(key, nodeFields) {
		case 0:
			decodeInt(s, &n.ID, &d.bad, "node id")
		case 1:
			if s.Next() == '"' { // a string replaces a compact label; null keeps it
				n.labelAt, n.labelEnd = 0, 0
			}
			if !s.String(&n.Label) {
				note(&d.bad, "node label")
			}
		case 2:
			if !s.Float(&n.Weight) {
				note(&d.bad, "node weight")
			}
		default:
			s.Skip()
		}
	}
}

// decodeEdge decodes an edge element into e: in the compact shape when
// it has it, by the member walk otherwise.
func decodeEdge(s *jsonscan.Scanner, e *jsonEdge, d *fileDecode) {
	if used := compactEdge(s.Rest(), e); used > 0 {
		s.Advance(used)
		return
	}
	if !enterObject(s, &d.bad, "edges") {
		return
	}
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			return
		}
		switch jsonscan.Lookup(key, edgeFields) {
		case 0:
			decodeInt(s, &e.From, &d.bad, "edge from")
		case 1:
			decodeInt(s, &e.To, &d.bad, "edge to")
		case 2:
			if !s.Float(&e.Weight) {
				note(&d.bad, "edge weight")
			}
		default:
			s.Skip()
		}
	}
}

// compactNode reads the node element that starts b when it has the
// writer's compact shape, {"id":I,"weight":W} or
// {"id":I,"label":"L","weight":W} byte for byte, with I, W and L tokens
// jsonscan's PlainInt, PlainFloat and PlainString take. It stores the
// element in n, appending L to d.labels, and returns the bytes it took.
// For any other element it returns 0 and changes nothing, and the
// member walk reads the element with its own values, errors and depth
// count (an element sits at depth 4 at most, far inside the limit).
// Each key run is compared as a constant string, which compiles to a
// few word compares; a helper taking the run as a parameter calls
// memequal instead, and measured slower.
func compactNode(b []byte, n *jsonNode, d *fileDecode) int {
	if len(b) < 6 || string(b[:6]) != `{"id":` {
		return 0
	}
	i := 6
	k, id := jsonscan.PlainInt(b[i:])
	if i += k; k == 0 {
		return 0
	}
	var label []byte
	labelled := len(b) >= i+9 && string(b[i:i+9]) == `,"label":`
	if labelled {
		i += 9
		k = jsonscan.PlainString(b[i:])
		if k == 0 {
			return 0
		}
		label = b[i+1 : i+k-1]
		i += k
	}
	if len(b) < i+10 || string(b[i:i+10]) != `,"weight":` {
		return 0
	}
	i += 10
	k, w := jsonscan.PlainFloat(b[i:])
	if i += k; k == 0 || i == len(b) || b[i] != '}' {
		return 0
	}
	n.ID, n.Weight = id, w
	if labelled {
		n.Label, n.labelAt = "", len(d.labels)
		d.labels = append(d.labels, label...)
		n.labelEnd = len(d.labels)
	}
	return i + 1
}

// compactEdge reads the edge element that starts b when it has the
// writer's compact shape, {"from":F,"to":T,"weight":W} byte for byte,
// with F, T and W tokens PlainInt and PlainFloat take, into e and
// returns the bytes it took; otherwise it returns 0 and changes
// nothing, as compactNode does.
func compactEdge(b []byte, e *jsonEdge) int {
	if len(b) < 8 || string(b[:8]) != `{"from":` {
		return 0
	}
	i := 8
	k, from := jsonscan.PlainInt(b[i:])
	if i += k; k == 0 || len(b) < i+6 || string(b[i:i+6]) != `,"to":` {
		return 0
	}
	i += 6
	k, to := jsonscan.PlainInt(b[i:])
	if i += k; k == 0 || len(b) < i+10 || string(b[i:i+10]) != `,"weight":` {
		return 0
	}
	i += 10
	k, w := jsonscan.PlainFloat(b[i:])
	if i += k; k == 0 || i == len(b) || b[i] != '}' {
		return 0
	}
	e.From, e.To, e.Weight = from, to, w
	return i + 1
}

// decodeInt reads an int field; like encoding/json, it rejects a value
// that does not fit in int.
func decodeInt(s *jsonscan.Scanner, dst *int, bad *string, field string) {
	n := int64(*dst)
	if !s.Int(&n) || int64(int(n)) != n {
		note(bad, field)
		return
	}
	*dst = int(n)
}

// build turns the decoded file form into a graph through its CSR: node
// IDs must be dense and unique; the CSR's successor and predecessor
// slots keep file order, which is the order AddEdge would store; and
// the graph keeps the checked CSR. A node's label is its Label or, where
// the compact pass read it, its span of labels. Errors are the ones
// adding the nodes in ID order and the edges in file order with
// AddEdge, then running Validate, would give, in that precedence: the
// node IDs; the first edge in file order with an endpoint out of
// range, a self-loop or a pair an earlier edge already joined; a cycle;
// the first negative node weight by ID; the first negative edge weight
// in (from, slot) order.
func (jg *jsonGraph) build(labels string) (*Graph, error) {
	v := len(jg.Nodes)
	seen := make([]bool, v)
	nodes := make([]Node, v)
	nodeW := make([]float64, v)
	for _, n := range jg.Nodes {
		if n.ID < 0 || n.ID >= v {
			return nil, fmt.Errorf("dag: node id %d out of range [0,%d)", n.ID, v)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("dag: duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
		label := n.Label
		if n.labelEnd > 0 {
			label = labels[n.labelAt:n.labelEnd]
		}
		nodes[n.ID] = Node{ID: NodeID(n.ID), Label: label, Weight: n.Weight}
		nodeW[n.ID] = n.Weight
	}
	edges := jg.Edges
	for i, e := range edges {
		if e.From < 0 || e.From >= v || e.To < 0 || e.To >= v || e.From == e.To {
			edges = edges[:i]
			break
		}
	}
	c := scatterCSR(nodeW, edges)
	if err := c.firstDuplicate(edges); err != nil {
		return nil, err
	}
	if len(edges) < len(jg.Edges) {
		e := jg.Edges[len(edges)]
		if e.From == e.To && e.From >= 0 && e.From < v {
			return nil, fmt.Errorf("dag: %w on node %d", ErrSelfLoop, e.From)
		}
		return nil, fmt.Errorf("dag: %w: %d -> %d", ErrEdgeEndpoint, e.From, e.To)
	}
	if err := c.topoCheck(nil); err != nil {
		return nil, err
	}
	for n, w := range c.NodeW {
		if badWeight(w) {
			return nil, fmt.Errorf("dag: %w: node %d has weight %v", ErrBadWeight, n, w)
		}
	}
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if w := c.SuccW[s]; badWeight(w) {
				return nil, fmt.Errorf("dag: %w: edge %d->%d has weight %v", ErrBadWeight, n, c.SuccTo[s], w)
			}
		}
	}
	g := c.graph(nodes)
	g.csr = c
	return g, nil
}

// scatterCSR lays edges out as a CSR with two counting scatters in
// file order: successor slots by from, predecessor slots by to. The
// endpoints must be in range. The two sides mirror each other by
// construction, and each node's slots keep file order.
func scatterCSR(nodeW []float64, edges []jsonEdge) *CSR {
	v, e := len(nodeW), len(edges)
	c := &CSR{
		PredOff:  make([]int32, v+1),
		PredFrom: make([]int32, e),
		PredW:    make([]float64, e),
		SuccOff:  make([]int32, v+1),
		SuccTo:   make([]int32, e),
		SuccW:    make([]float64, e),
		NodeW:    nodeW,
	}
	for _, ed := range edges {
		c.SuccOff[ed.From+1]++
		c.PredOff[ed.To+1]++
	}
	for n := 0; n < v; n++ {
		c.SuccOff[n+1] += c.SuccOff[n]
		c.PredOff[n+1] += c.PredOff[n]
	}
	next := make([]int32, 2*v) // the next free successor slot of each node, then predecessor slot
	copy(next, c.SuccOff[:v])
	copy(next[v:], c.PredOff[:v])
	for _, ed := range edges {
		s := next[ed.From]
		next[ed.From] = s + 1
		c.SuccTo[s], c.SuccW[s] = int32(ed.To), ed.Weight
		p := next[v+ed.To]
		next[v+ed.To] = p + 1
		c.PredFrom[p], c.PredW[p] = int32(ed.From), ed.Weight
	}
	return c
}

// firstDuplicate returns the duplicate-edge error for the first edge,
// in file order, that joins a pair an earlier edge already joined, or
// nil; c must be edges' scatter. A stamp per node finds each node's
// first repeated successor slot in O(v + e); only when one exists does
// a pass over the edges turn its rank among the node's slots into file
// order.
func (c *CSR) firstDuplicate(edges []jsonEdge) error {
	v := c.NumNodes()
	stamp := make([]int32, v)
	var dup []int32 // dup[n]: 1 + the rank of n's first repeated slot, or 0
	for n := int32(0); n < int32(v); n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if to := c.SuccTo[s]; stamp[to] != n+1 {
				stamp[to] = n + 1
				continue
			}
			if dup == nil {
				dup = make([]int32, v)
			}
			dup[n] = s - c.SuccOff[n] + 1
			break
		}
	}
	if dup == nil {
		return nil
	}
	clear(stamp) // now each node's count of edges so far, in file order
	for _, e := range edges {
		if stamp[e.From]++; stamp[e.From] == dup[e.From] {
			return fmt.Errorf("dag: %w: %d -> %d", ErrDuplicateEdge, e.From, e.To)
		}
	}
	panic("dag: a repeated successor slot has no edge")
}

// graph builds the *Graph c describes, with nodes as its node table:
// one pass, each direction's edges in one backing array in c's slot
// order, each list cut to its exact capacity.
func (c *CSR) graph(nodes []Node) *Graph {
	v, e := c.NumNodes(), c.NumEdges()
	g := &Graph{nodes: nodes, succ: make([][]Edge, v), pred: make([][]Edge, v), ne: e}
	succ, pred := make([]Edge, e), make([]Edge, e)
	for n := 0; n < v; n++ {
		lo, hi := c.SuccOff[n], c.SuccOff[n+1]
		for s := lo; s < hi; s++ {
			succ[s] = Edge{From: NodeID(n), To: NodeID(c.SuccTo[s]), Weight: c.SuccW[s]}
		}
		g.succ[n] = succ[lo:hi:hi]
		lo, hi = c.PredOff[n], c.PredOff[n+1]
		for s := lo; s < hi; s++ {
			pred[s] = Edge{From: NodeID(c.PredFrom[s]), To: NodeID(n), Weight: c.PredW[s]}
		}
		g.pred[n] = pred[lo:hi:hi]
	}
	return g
}

// DOT renders the graph in Graphviz dot syntax. Node labels include the
// computation cost; edge labels carry the communication cost.
func DOT(g *Graph, name string) string {
	var b strings.Builder
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", name)
	for _, n := range g.Nodes() {
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("n%d", n.ID)
		}
		fmt.Fprintf(&b, "  %d [label=\"%s\\n%.6g\"];\n", n.ID, label, n.Weight)
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %d -> %d [label=\"%.6g\"];\n", e.From, e.To, e.Weight)
	}
	b.WriteString("}\n")
	return b.String()
}
