package dag

import (
	"fmt"
	"math"
)

// CSR is a flat compressed-sparse-row view of a weighted DAG: both
// adjacency directions as contiguous int32/float64 arenas, with no
// per-node slice headers or Node structs. It is the memory layout of
// the large-graph path — a v-node, e-edge graph costs
// 24·e + 24·v bytes regardless of shape — and the exchange type the
// streaming readers (StreamSTG, StreamEdgeList) produce without ever
// materializing a *Graph.
//
// Slot order is part of the contract: PredFrom/PredW list node n's
// predecessors in the same order g.Pred(n) stores them, and
// SuccTo/SuccW mirror g.Succ(n), so every floating-point max reduction
// over a CSR is bit-identical to the slice walk it replaces.
//
// Node IDs are stored as int32: a graph would need 2^31 nodes to
// overflow, far beyond anything the generators produce.
//
// A CSR is read-only once built: a decoded graph, every plan compiled
// from it and every run of those plans share one.
type CSR struct {
	PredOff  []int32   // PredOff[n]..PredOff[n+1] indexes n's predecessors; len v+1
	PredFrom []int32   // predecessor node of each pred slot; len e
	PredW    []float64 // communication cost of each pred slot; len e
	SuccOff  []int32   // SuccOff[n]..SuccOff[n+1] indexes n's successors; len v+1
	SuccTo   []int32   // successor node of each succ slot; len e
	SuccW    []float64 // communication cost of each succ slot; len e
	NodeW    []float64 // computation cost per node (dense copy); len v
}

// NumNodes returns v.
func (c *CSR) NumNodes() int { return len(c.NodeW) }

// NumEdges returns e.
func (c *CSR) NumEdges() int { return len(c.SuccTo) }

// TotalWork returns the sum of all computation costs.
func (c *CSR) TotalWork() float64 {
	var s float64
	for _, w := range c.NodeW {
		s += w
	}
	return s
}

// TotalComm returns the sum of all communication costs.
func (c *CSR) TotalComm() float64 {
	var s float64
	for _, w := range c.SuccW {
		s += w
	}
	return s
}

// BuildCSR flattens g's adjacency in stored order. A graph DecodeJSON
// built returns the CSR it was decoded from.
func BuildCSR(g *Graph) *CSR { return BuildCSRInto(g, &CSR{}) }

// BuildCSRInto is BuildCSR for a caller that reads the CSR and drops
// it: a graph without a decoded CSR is flattened into scratch, whose
// arrays are reused where they are large enough, and scratch is
// returned. It is only as valid as scratch's next use.
func BuildCSRInto(g *Graph, scratch *CSR) *CSR {
	if g.csr != nil {
		return g.csr
	}
	flatten(scratch, g, false)
	return scratch
}

// reuse returns s cut to length n when its capacity allows, else a
// fresh slice of length n. The caller overwrites every element.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flatten is the one loop that turns g's adjacency into a CSR. With
// check set it also makes Validate's per-slot checks on the way and
// returns the first failure in Validate's order: node weights, then
// successor slots (owner, endpoint, self-loop, weight), then
// predecessor slots (owner, endpoint). The CSR is complete either way,
// so a topological pass over it can still report a cycle first. It
// writes into c, reusing its arrays where they are large enough.
func flatten(c *CSR, g *Graph, check bool) error {
	v, e := g.NumNodes(), g.NumEdges()
	c.PredOff = reuse(c.PredOff, v+1)
	c.PredFrom = reuse(c.PredFrom, e)[:0]
	c.PredW = reuse(c.PredW, e)[:0]
	c.SuccOff = reuse(c.SuccOff, v+1)
	c.SuccTo = reuse(c.SuccTo, e)[:0]
	c.SuccW = reuse(c.SuccW, e)[:0]
	c.NodeW = reuse(c.NodeW, v)
	var nodeErr, succErr, predErr error
	for n := 0; n < v; n++ {
		id := NodeID(n)
		c.PredOff[n] = int32(len(c.PredFrom))
		for _, ed := range g.pred[n] {
			if check && predErr == nil {
				predErr = g.predSlotErr(id, ed)
			}
			c.PredFrom = append(c.PredFrom, int32(ed.From))
			c.PredW = append(c.PredW, ed.Weight)
		}
		c.SuccOff[n] = int32(len(c.SuccTo))
		for _, ed := range g.succ[n] {
			if check && succErr == nil {
				succErr = g.succSlotErr(id, ed)
			}
			c.SuccTo = append(c.SuccTo, int32(ed.To))
			c.SuccW = append(c.SuccW, ed.Weight)
		}
		w := g.nodes[n].Weight
		if check && nodeErr == nil && badWeight(w) {
			nodeErr = fmt.Errorf("dag: %w: node %d has weight %v", ErrBadWeight, n, w)
		}
		c.NodeW[n] = w
	}
	c.PredOff[v] = int32(len(c.PredFrom))
	c.SuccOff[v] = int32(len(c.SuccTo))
	switch {
	case nodeErr != nil:
		return nodeErr
	case succErr != nil:
		return succErr
	}
	return predErr
}

// succSlotErr checks one successor slot of node n.
func (g *Graph) succSlotErr(n NodeID, e Edge) error {
	switch {
	case e.From != n:
		return fmt.Errorf("dag: corrupt succ list at node %d", n)
	case !g.valid(e.To):
		return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, e.From, e.To, len(g.nodes))
	case e.From == e.To:
		return fmt.Errorf("dag: %w on node %d", ErrSelfLoop, e.From)
	case badWeight(e.Weight):
		return fmt.Errorf("dag: %w: edge %d->%d has weight %v", ErrBadWeight, e.From, e.To, e.Weight)
	}
	return nil
}

// predSlotErr checks one predecessor slot of node n; its weight is
// the mirror check's business.
func (g *Graph) predSlotErr(n NodeID, e Edge) error {
	switch {
	case e.To != n:
		return fmt.Errorf("dag: corrupt pred list at node %d", n)
	case !g.valid(e.From):
		return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, e.From, e.To, len(g.nodes))
	}
	return nil
}

// badWeight reports a NaN, infinite or negative cost.
func badWeight(w float64) bool { return math.IsNaN(w) || math.IsInf(w, 0) || w < 0 }

// ToGraph materializes the CSR as a *Graph for the code paths that
// take one (rendering, a caller's own scheduler, the plan cache's
// snapshot graphs). Nodes are labeled t<i>, the STG convention. Both
// directions keep c's slot order exactly, so the graph flattens back
// to c and has the content key of the graph c was flattened from. The
// graph does not keep c: a caller's CSR is not known to be checked, so
// the graph validates like one built edge by edge.
func (c *CSR) ToGraph() *Graph {
	nodes := make([]Node, c.NumNodes())
	for n, w := range c.NodeW {
		nodes[n] = Node{ID: NodeID(n), Label: fmt.Sprintf("t%d", n), Weight: w}
	}
	return c.graph(nodes)
}

// TopoOrder returns the node indices in topological order (Kahn's
// algorithm, smallest-ID-first for determinism), or ErrCycle. It works
// entirely in int32; a graph whose edges all run from a lower ID to a
// higher one gets 0…v−1 without scratch, any other one draws two O(v)
// scratch arrays.
func (c *CSR) TopoOrder() ([]int32, error) {
	return c.topoOrderArenaInto(make([]int32, 0, c.NumNodes()), nil)
}

// widen copies an int32 node order into NodeIDs.
func widen(order []int32) []NodeID {
	out := make([]NodeID, len(order))
	for i, n := range order {
		out[i] = NodeID(n)
	}
	return out
}

// topoCheck verifies acyclicity with every scratch array — the order
// itself, and for a graph that is not ascending the indegrees and the
// ready heap — drawn from a and released before returning.
func (c *CSR) topoCheck(a *ScaleArena) error {
	slab := a.I32(c.NumNodes())
	_, err := c.topoOrderArenaInto(slab[:0], a)
	a.ReleaseI32(slab)
	return err
}

// topoOrderArenaInto appends the smallest-ID-first Kahn order to order
// (which must be empty but may carry capacity). An ascending graph's
// order is 0…v−1 and costs one pass over the predecessor slots; any
// other graph runs topoHeap.
func (c *CSR) topoOrderArenaInto(order []int32, a *ScaleArena) ([]int32, error) {
	if !c.ascending() {
		return c.topoHeap(order, a)
	}
	for n := range int32(c.NumNodes()) {
		order = append(order, n)
	}
	return order, nil
}

// ascending reports whether every predecessor slot's parent ID is below
// its node's ID. Such a graph is acyclic, and its smallest-ID-first
// Kahn order is 0…v−1: once 0…k−1 are out, all of k's parents are out,
// and every other ready node has a larger ID. The heap walk reads the
// successor slots, so the two agree on a CSR whose directions mirror
// each other — every CSR the readers, the decoder and flatten build
// from a graph assembled edge by edge.
func (c *CSR) ascending() bool {
	for n := range c.NumNodes() {
		for _, p := range c.PredFrom[c.PredOff[n]:c.PredOff[n+1]] {
			if int(p) >= n {
				return false
			}
		}
	}
	return true
}

// topoHeap is the general Kahn sort: a binary heap keeps the smallest
// ready ID on top. It appends to order and draws its two O(v) scratch
// arrays from a; both are released on return (the order is not — it is
// the caller's).
func (c *CSR) topoHeap(order []int32, a *ScaleArena) ([]int32, error) {
	v := c.NumNodes()
	indeg := a.I32(v)
	for n := 0; n < v; n++ {
		indeg[n] = c.PredOff[n+1] - c.PredOff[n]
	}
	heapSlab := a.I32(v)
	h := &i32Heap{a: heapSlab[:0]}
	for n := 0; n < v; n++ {
		if indeg[n] == 0 {
			h.push(int32(n))
		}
	}
	for h.len() > 0 {
		n := h.pop()
		order = append(order, n)
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			indeg[to]--
			if indeg[to] == 0 {
				h.push(to)
			}
		}
	}
	a.ReleaseI32(indeg)
	a.ReleaseI32(heapSlab)
	if len(order) != v {
		return nil, fmt.Errorf("dag: %w (%d of %d nodes ordered)", ErrCycle, len(order), v)
	}
	return order, nil
}

// Validate checks the CSR's structural invariants in O(v + e): array
// shapes, monotone offsets, endpoint ranges, finite non-negative
// weights, no self-loops, no duplicate edges, succ/pred mirror
// consistency (the two directions describe the same edge multiset with
// the same weights), and acyclicity. Failures carry the package's
// typed errors (ErrEdgeEndpoint, ErrSelfLoop, ErrDuplicateEdge,
// ErrBadWeight, ErrCycle) so loaders can classify them.
func (c *CSR) Validate() error {
	v := c.NumNodes()
	e := len(c.SuccTo)
	if len(c.PredOff) != v+1 || len(c.SuccOff) != v+1 {
		return fmt.Errorf("dag: csr: offset tables sized %d/%d, want %d", len(c.PredOff), len(c.SuccOff), v+1)
	}
	if len(c.PredFrom) != e || len(c.PredW) != e || len(c.SuccW) != e {
		return fmt.Errorf("dag: csr: edge arrays sized %d/%d/%d, want %d", len(c.PredFrom), len(c.PredW), len(c.SuccW), e)
	}
	if c.PredOff[0] != 0 || c.SuccOff[0] != 0 || c.PredOff[v] != int32(e) || c.SuccOff[v] != int32(e) {
		return fmt.Errorf("dag: csr: offset endpoints corrupt")
	}
	for n := 0; n < v; n++ {
		if c.PredOff[n+1] < c.PredOff[n] || c.SuccOff[n+1] < c.SuccOff[n] {
			return fmt.Errorf("dag: csr: non-monotone offsets at node %d", n)
		}
		if w := c.NodeW[n]; badWeight(w) {
			return fmt.Errorf("dag: %w: node %d has weight %v", ErrBadWeight, n, w)
		}
	}
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			if to < 0 || int(to) >= v {
				return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, n, to, v)
			}
			if int(to) == n {
				return fmt.Errorf("dag: %w on node %d", ErrSelfLoop, n)
			}
			if w := c.SuccW[s]; badWeight(w) {
				return fmt.Errorf("dag: %w: edge %d->%d has weight %v", ErrBadWeight, n, to, w)
			}
		}
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			if from < 0 || int(from) >= v {
				return fmt.Errorf("dag: %w: %d -> %d (v=%d)", ErrEdgeEndpoint, from, n, v)
			}
		}
	}
	if err := c.checkMirror(); err != nil {
		return err
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// checkMirror verifies that the succ and pred arenas describe the same
// weighted edge multiset and that no (from, to) pair repeats, using two
// stable counting-sort passes instead of per-edge lookups — O(v + e)
// rather than the O(Σdeg²) a nested scan would cost.
func (c *CSR) checkMirror() error {
	v, e := c.NumNodes(), c.NumEdges()
	if len(c.PredFrom) != e {
		return fmt.Errorf("dag: csr: %d pred slots vs %d succ slots", len(c.PredFrom), e)
	}
	// Pass 1: succ slots are stored grouped by `from` ascending; a
	// stable counting sort by `to` yields (to, from) order, and a second
	// stable pass by `from` yields canonical (from, to) order.
	from1 := make([]int32, e) // after pass 1: the `from` of each (to,from)-ordered edge
	to1 := make([]int32, e)
	w1 := make([]float64, e)
	count := make([]int32, v+1)
	for _, to := range c.SuccTo {
		count[to+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			to := c.SuccTo[s]
			i := count[to]
			count[to] = i + 1
			from1[i], to1[i], w1[i] = int32(n), to, c.SuccW[s]
		}
	}
	sortedFrom := make([]int32, e)
	sortedTo := make([]int32, e)
	sortedW := make([]float64, e)
	for i := range count {
		count[i] = 0
	}
	for _, f := range from1 {
		count[f+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	for i := 0; i < e; i++ {
		f := from1[i]
		j := count[f]
		count[f] = j + 1
		sortedFrom[j], sortedTo[j], sortedW[j] = f, to1[i], w1[i]
	}
	for i := 1; i < e; i++ {
		if sortedFrom[i] == sortedFrom[i-1] && sortedTo[i] == sortedTo[i-1] {
			return fmt.Errorf("dag: %w: %d -> %d", ErrDuplicateEdge, sortedFrom[i], sortedTo[i])
		}
	}
	// Pass 2: pred slots are stored grouped by `to` ascending; one
	// stable counting sort by `from` yields the same canonical
	// (from, to) order, so the two sides compare elementwise.
	for i := range count {
		count[i] = 0
	}
	for _, f := range c.PredFrom {
		count[f+1]++
	}
	for n := 0; n < v; n++ {
		count[n+1] += count[n]
	}
	// Reuse pass-1 scratch as the sorted pred arrays.
	predFrom, predTo, predW := from1, to1, w1
	for n := 0; n < v; n++ {
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			f := c.PredFrom[s]
			i := count[f]
			count[f] = i + 1
			predFrom[i], predTo[i], predW[i] = f, int32(n), c.PredW[s]
		}
	}
	for i := 0; i < e; i++ {
		if predFrom[i] != sortedFrom[i] || predTo[i] != sortedTo[i] || predW[i] != sortedW[i] {
			return fmt.Errorf("dag: csr: succ/pred mismatch at canonical edge %d", i)
		}
	}
	return nil
}

// i32Heap is a tiny binary min-heap of int32 node indices (avoids
// container/heap interface overhead on the topological sort).
type i32Heap struct{ a []int32 }

func (h *i32Heap) len() int { return len(h.a) }

func (h *i32Heap) push(x int32) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *i32Heap) pop() int32 {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
