// Package dag implements the node- and edge-weighted directed acyclic
// graph model used by static multiprocessor scheduling: tasks with
// computation costs connected by messages with communication costs.
//
// The package provides construction and validation, topological
// ordering, the level attributes used by scheduling heuristics
// (t-level, b-level, static level, ASAP and ALAP times), critical-path
// extraction, and the CPN/IBN/OBN node classification introduced by the
// FAST algorithm (Kwok, Ahmad, Gu; ICPP 1996).
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// Typed construction/validation errors. They are returned (wrapped with
// context) by AddEdge and Validate so user-reachable paths — CLI graph
// loaders, library callers building graphs from external data — can
// classify failures with errors.Is instead of crashing on a panic.
var (
	// ErrEdgeEndpoint marks an edge whose endpoint is not a node of the
	// graph.
	ErrEdgeEndpoint = errors.New("edge endpoint out of range")
	// ErrSelfLoop marks an edge from a node to itself.
	ErrSelfLoop = errors.New("self-loop")
	// ErrDuplicateEdge marks a second edge between the same ordered pair.
	ErrDuplicateEdge = errors.New("duplicate edge")
	// ErrBadWeight marks a NaN, infinite or negative node or edge weight.
	ErrBadWeight = errors.New("bad weight")
	// ErrCycle marks a graph that is not acyclic.
	ErrCycle = errors.New("graph contains a cycle")
)

// NodeID identifies a node within a Graph. IDs are dense: a graph with v
// nodes uses IDs 0..v-1, which lets attribute tables be flat slices.
type NodeID int

// None is the sentinel "no node" value.
const None NodeID = -1

// Node is a task: a unit of work executed sequentially on one processor.
type Node struct {
	ID     NodeID
	Label  string  // human-readable name, e.g. "n7" or "update(3,5)"
	Weight float64 // computation cost w(n)
}

// Edge is a message (and precedence constraint) between two tasks.
type Edge struct {
	From, To NodeID
	Weight   float64 // communication cost c(from,to); zeroed when co-located
}

// Graph is a weighted DAG. The zero value is an empty graph ready to use.
// Graphs are mutable during construction; scheduling algorithms treat
// them as read-only.
type Graph struct {
	nodes []Node
	// adjacency, indexed by NodeID
	succ [][]Edge // outgoing edges of each node
	pred [][]Edge // incoming edges of each node
	ne   int      // edge count
	// dupSet holds a per-node successor set, built lazily once a node's
	// out-degree crosses dupScanThreshold, so AddEdge's duplicate check
	// is O(1) on dense fan-out instead of O(deg) per edge (O(v·e) worst
	// case across a whole dense graph). Nodes below the threshold keep
	// the allocation-free linear scan. It is build-only state: Clone
	// does not copy it, ToGraph and the JSON decoder never build one,
	// and a later AddEdge rebuilds a node's set from its successor list.
	dupSet map[NodeID]map[NodeID]struct{}
	// csr is the checked CSR DecodeJSON built the graph from, nil for a
	// graph built any other way. While it is set, Validate has nothing
	// left to check, and BuildCSR and ValidatedLevels read it instead of
	// flattening again. Every mutator clears it, and Clone does not copy
	// it. It is written only before the graph is shared, and by the
	// mutators, which already need exclusive access.
	csr *CSR
	// fromCSR marks a graph ToGraph built from a caller's CSR, whose
	// two adjacency sides are whatever that CSR held. AddEdge,
	// SetEdgeWeight, Clone and the decoder write both sides together, so
	// only a marked graph can have sides that disagree, and only its
	// validation runs the mirror check. Clone carries the mark; no
	// mutator clears it, as none of them can make the sides agree.
	fromCSR bool
}

// dupScanThreshold is the out-degree above which AddEdge switches from
// a linear duplicate scan to a per-node set. Below it, scanning a
// handful of slots is cheaper than hashing.
const dupScanThreshold = 32

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		succ:  make([][]Edge, 0, n),
		pred:  make([][]Edge, 0, n),
	}
}

// AddNode appends a node with the given label and computation cost and
// returns its ID.
func (g *Graph) AddNode(label string, weight float64) NodeID {
	id := NodeID(len(g.nodes))
	g.csr = nil
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Weight: weight})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge inserts a directed edge from -> to with the given
// communication cost. Out-of-range IDs, self-loops and duplicate edges
// are rejected with typed errors (ErrEdgeEndpoint, ErrSelfLoop,
// ErrDuplicateEdge); generators with known-valid endpoints can use
// MustAddEdge.
func (g *Graph) AddEdge(from, to NodeID, weight float64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, from, to, len(g.nodes))
	}
	if from == to {
		return fmt.Errorf("dag: %w on node %d", ErrSelfLoop, from)
	}
	if len(g.succ[from]) < dupScanThreshold {
		for _, e := range g.succ[from] {
			if e.To == to {
				return fmt.Errorf("dag: %w: %d -> %d", ErrDuplicateEdge, from, to)
			}
		}
	} else {
		if g.dupSet == nil {
			g.dupSet = make(map[NodeID]map[NodeID]struct{})
		}
		set := g.dupSet[from]
		if set == nil {
			set = make(map[NodeID]struct{}, 2*len(g.succ[from]))
			for _, e := range g.succ[from] {
				set[e.To] = struct{}{}
			}
			g.dupSet[from] = set
		}
		if _, dup := set[to]; dup {
			return fmt.Errorf("dag: %w: %d -> %d", ErrDuplicateEdge, from, to)
		}
		set[to] = struct{}{}
	}
	e := Edge{From: from, To: to, Weight: weight}
	g.csr = nil
	g.succ[from] = append(g.succ[from], e)
	g.pred[to] = append(g.pred[to], e)
	g.ne++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for literals in tests and
// generators where duplicates indicate a programming bug.
func (g *Graph) MustAddEdge(from, to NodeID, weight float64) {
	if err := g.AddEdge(from, to, weight); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns v, the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns e, the number of edges.
func (g *Graph) NumEdges() int { return g.ne }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns the node table in ID order. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Nodes() []Node { return g.nodes }

// Weight returns the computation cost of node id.
func (g *Graph) Weight(id NodeID) float64 { return g.nodes[id].Weight }

// Label returns the label of node id.
func (g *Graph) Label(id NodeID) string { return g.nodes[id].Label }

// SetWeight replaces the computation cost of node id.
func (g *Graph) SetWeight(id NodeID, w float64) {
	g.csr = nil
	g.nodes[id].Weight = w
}

// SetEdgeWeight replaces the communication cost of edge from->to.
// It reports whether the edge exists.
func (g *Graph) SetEdgeWeight(from, to NodeID, w float64) bool {
	g.csr = nil
	found := false
	for i := range g.succ[from] {
		if g.succ[from][i].To == to {
			g.succ[from][i].Weight = w
			found = true
		}
	}
	for i := range g.pred[to] {
		if g.pred[to][i].From == from {
			g.pred[to][i].Weight = w
		}
	}
	return found
}

// Succ returns the outgoing edges of id. Shared storage; read-only: a
// caller who writes through it or Pred's is outside the contract, as
// Validate does not check that the two sides still agree.
func (g *Graph) Succ(id NodeID) []Edge { return g.succ[id] }

// Pred returns the incoming edges of id. Shared storage; read-only.
func (g *Graph) Pred(id NodeID) []Edge { return g.pred[id] }

// InDegree returns the number of parents of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.pred[id]) }

// OutDegree returns the number of children of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.succ[id]) }

// EdgeWeight returns the communication cost of edge from->to and whether
// the edge exists.
func (g *Graph) EdgeWeight(from, to NodeID) (float64, bool) {
	for _, e := range g.succ[from] {
		if e.To == to {
			return e.Weight, true
		}
	}
	return 0, false
}

// Edges returns all edges in (From, To) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.ne)
	for _, es := range g.succ {
		out = append(out, es...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EntryNodes returns all nodes with no parents, in ID order.
func (g *Graph) EntryNodes() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.pred[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// ExitNodes returns all nodes with no children, in ID order.
func (g *Graph) ExitNodes() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.succ[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// TotalWork returns the sum of all computation costs (the sequential
// execution time of the program).
func (g *Graph) TotalWork() float64 {
	var s float64
	for _, n := range g.nodes {
		s += n.Weight
	}
	return s
}

// TotalComm returns the sum of all communication costs.
func (g *Graph) TotalComm() float64 {
	var s float64
	for _, es := range g.succ {
		for _, e := range es {
			s += e.Weight
		}
	}
	return s
}

// CCR returns the communication-to-computation ratio: average edge cost
// divided by average node cost. It returns 0 for a graph with no edges.
func (g *Graph) CCR() float64 {
	if g.ne == 0 || len(g.nodes) == 0 {
		return 0
	}
	avgC := g.TotalComm() / float64(g.ne)
	avgW := g.TotalWork() / float64(len(g.nodes))
	if avgW == 0 {
		return 0
	}
	return avgC / avgW
}

// Clone returns a deep copy of the graph. Neither the lazily built
// duplicate sets nor the decoder's CSR are copied: a clone that keeps
// growing rebuilds the sets on the first AddEdge that needs one, and a
// clone validates and flattens like any graph built edge by edge. A
// clone of a graph ToGraph built keeps its mirror check.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:   append([]Node(nil), g.nodes...),
		succ:    make([][]Edge, len(g.succ)),
		pred:    make([][]Edge, len(g.pred)),
		ne:      g.ne,
		fromCSR: g.fromCSR,
	}
	for i := range g.succ {
		c.succ[i] = append([]Edge(nil), g.succ[i]...)
		c.pred[i] = append([]Edge(nil), g.pred[i]...)
	}
	return c
}

// TopologicalOrder returns the node IDs in a topological order (Kahn's
// algorithm, smallest-ID-first for determinism), or an error if the
// graph contains a cycle.
func (g *Graph) TopologicalOrder() ([]NodeID, error) {
	order, err := BuildCSR(g).TopoOrder()
	if err != nil {
		return nil, err
	}
	return widen(order), nil
}

// Validate checks structural invariants: acyclicity, well-formed
// weights (finite and non-negative on both nodes and edges), slot
// owners and endpoints, and the absence of self-edges. On a graph
// ToGraph built, or a clone of one, it also checks that the successor
// and predecessor sides describe the same edges with the same weights
// and that no (from, to) pair repeats; every other graph's sides agree
// by construction (see fromCSR). Generators and loaders call it before
// handing a graph to a scheduler; failures are typed (ErrCycle,
// ErrBadWeight, ErrSelfLoop, ErrEdgeEndpoint, ErrDuplicateEdge) so CLI
// load paths can report them instead of crashing. A graph DecodeJSON
// built, and nothing has changed since, passed these checks when it was
// decoded, so Validate returns nil at once.
func (g *Graph) Validate() error {
	if g.csr != nil {
		return nil
	}
	_, err := g.validated(func(c *CSR) error { return c.topoCheck(nil) })
	return err
}

// ValidatedLevels validates g exactly as Validate does and returns the
// CSR and levels a compile needs, computed in the same passes: the CSR
// is the checked flatten's, and the levels kernel's topological pass
// is the cycle check. A decoded graph's levels run on the CSR it was
// decoded from. Errors are Validate's, in its precedence, plus
// ComputeLevelsCSR's for an empty graph.
func (g *Graph) ValidatedLevels() (*CSR, *Levels, error) {
	var l *Levels
	c, err := g.validated(func(c *CSR) (err error) {
		l, err = ComputeLevelsCSR(c)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return c, l, nil
}

// validated runs the checked flatten, then topo — a topological pass
// over the CSR, which doubles as the cycle check — then, on a graph
// ToGraph built, the mirror check. Errors keep Validate's precedence: a
// cycle first, then the flatten's weight and slot failures, then the
// mirror. Mirror consistency (every succ entry has exactly one pred
// twin with the same weight, and no (from, to) pair repeats) is the
// CSR's O(v + e) counting-sort comparison. A decoded graph's CSR is
// checked already, so only topo runs.
func (g *Graph) validated(topo func(*CSR) error) (*CSR, error) {
	if g.csr != nil {
		return g.csr, topo(g.csr)
	}
	c := &CSR{}
	slotErr := flatten(c, g, true)
	if err := topo(c); err != nil {
		return nil, err
	}
	if slotErr != nil {
		return nil, slotErr
	}
	if g.fromCSR {
		if err := c.checkMirror(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// IsWeaklyConnected reports whether the graph is connected when edge
// directions are ignored. The empty graph is considered connected.
func (g *Graph) IsWeaklyConnected() bool {
	v := len(g.nodes)
	if v == 0 {
		return true
	}
	seen := make([]bool, v)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[n] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
		for _, e := range g.pred[n] {
			if !seen[e.From] {
				seen[e.From] = true
				count++
				stack = append(stack, e.From)
			}
		}
	}
	return count == v
}
