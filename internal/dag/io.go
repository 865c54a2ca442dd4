package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

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
func DecodeJSON(s *jsonscan.Scanner) (*Graph, string, error) {
	var (
		jg  jsonGraph
		bad string // the first field holding a value of the wrong type
	)
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
				if !s.String(&jg.Name) {
					note(&bad, "name")
				}
			case 1:
				jg.Nodes = decodeList(s, jg.Nodes, decodeNode, &bad, "nodes")
			case 2:
				jg.Edges = decodeList(s, jg.Edges, decodeEdge, &bad, "edges")
			default:
				s.Skip()
			}
		}
	case 'n':
		s.Skip()
	default:
		s.Skip()
		note(&bad, "graph")
	}
	if err := s.Err(); err != nil {
		return nil, "", fmt.Errorf("dag: decode: %w", err)
	}
	if bad != "" {
		return nil, "", fmt.Errorf("dag: decode: %s has a value of the wrong JSON type or out of range", bad)
	}
	g, err := jg.build()
	if err != nil {
		return nil, "", err
	}
	return g, jg.Name, nil
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
// array's length; an empty array or null leaves no backing array.
func decodeList[T any](s *jsonscan.Scanner, list []T, decode func(*jsonscan.Scanner, *T, *string), bad *string, field string) []T {
	if !s.Enter('[') {
		null := s.Next() == 'n'
		if !null {
			note(bad, field)
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
		decode(s, &list[i], bad)
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

func decodeNode(s *jsonscan.Scanner, n *jsonNode, bad *string) {
	if !enterObject(s, bad, "nodes") {
		return
	}
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			return
		}
		switch jsonscan.Lookup(key, nodeFields) {
		case 0:
			decodeInt(s, &n.ID, bad, "node id")
		case 1:
			if !s.String(&n.Label) {
				note(bad, "node label")
			}
		case 2:
			if !s.Float(&n.Weight) {
				note(bad, "node weight")
			}
		default:
			s.Skip()
		}
	}
}

func decodeEdge(s *jsonscan.Scanner, e *jsonEdge, bad *string) {
	if !enterObject(s, bad, "edges") {
		return
	}
	for i := 0; ; i++ {
		key, ok := s.Member(i)
		if !ok {
			return
		}
		switch jsonscan.Lookup(key, edgeFields) {
		case 0:
			decodeInt(s, &e.From, bad, "edge from")
		case 1:
			decodeInt(s, &e.To, bad, "edge to")
		case 2:
			if !s.Float(&e.Weight) {
				note(bad, "edge weight")
			}
		default:
			s.Skip()
		}
	}
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
// the graph keeps the checked CSR. Errors are the ones adding the nodes
// in ID order and the edges in file order with AddEdge, then running
// Validate, would give, in that precedence: the node IDs; the first
// edge in file order with an endpoint out of range, a self-loop or a
// pair an earlier edge already joined; a cycle; the first negative node
// weight by ID; the first negative edge weight in (from, slot) order.
func (jg *jsonGraph) build() (*Graph, error) {
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
		nodes[n.ID] = Node{ID: NodeID(n.ID), Label: n.Label, Weight: n.Weight}
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
