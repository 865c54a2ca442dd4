// Package plan compiles task graphs into the immutable per-graph
// artifacts every scheduling run otherwise re-derives from scratch: a
// flat CSR view of the adjacency, the five level metrics, the node
// classification, the topological order, and FAST's CPN-Dominate
// priority list. One analysis core over the CSR builds every plan,
// whether it starts from a *dag.Graph (Compile, CompileKeyed) or from a
// CSR alone (CompileCompact). A CompiledGraph is computed once per
// unique graph — behind the content-addressed Cache — and then shared
// read-only by any number of concurrent scheduling runs, so the
// steady-state serving path pays only for the work that actually
// depends on the request (seed, processor count, search budget), not
// for the graph analysis.
//
// Compilation is deterministic: every artifact is a pure function of
// the CSR's stored node and slot order, so a run fed a CompiledGraph
// is bit-identical to a run that derives the same artifacts ad hoc
// (pinned by the differential tests in internal/batch).
package plan

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Key is the content address of a graph: a SHA-256 over its node
// weights and adjacency in stored order. Two graphs with equal keys
// describe the same scheduling input, including the edge insertion
// order the schedulers' tie-breaks depend on.
type Key [32]byte

// keyScratch pools GraphKey's serialization buffer and the CSR it
// flattens a graph built edge by edge into, so the warm lookup path
// allocates nothing.
var keyScratch = sync.Pool{New: func() any { return new(keyBuf) }}

type keyBuf struct {
	buf []byte
	csr dag.CSR
}

// GraphKey hashes g's content: node count and weights, edge count,
// then each node's successor count and successor slots (child, weight)
// exactly as stored (deliberately not canonicalized — schedulers'
// tie-breaks and FAST's random transfer sequence depend on edge
// insertion order, so structurally equal graphs built in different
// orders must not collide). When some node lists its parents out of
// ascending ID order, every predecessor slot's parent follows in stored
// order too, four bytes each: FAST, PFAST and DSC break ties in
// predecessor order, and as the successor slots already fix each edge's
// weight and a graph holds one edge per pair at most, the parents are
// all a predecessor slot adds. A graph whose parent lists all ascend,
// such as every graph decoded from WriteJSON's form, keeps the digest
// over the successor slots alone. It reads g's CSR: a decoded graph's
// own, or a flatten into pooled scratch.
func GraphKey(g *dag.Graph) Key {
	kb := keyScratch.Get().(*keyBuf)
	c := dag.BuildCSRInto(g, &kb.csr)
	buf := kb.buf[:0]
	u64 := func(x uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	v := c.NumNodes()
	u64(uint64(v))
	for _, w := range c.NodeW {
		u64(math.Float64bits(w))
	}
	u64(uint64(c.NumEdges()))
	for n := 0; n < v; n++ {
		lo, hi := c.SuccOff[n], c.SuccOff[n+1]
		u64(uint64(hi - lo))
		for s := lo; s < hi; s++ {
			u64(uint64(c.SuccTo[s]))
			u64(math.Float64bits(c.SuccW[s]))
		}
	}
	if !parentsAscend(c) {
		for _, p := range c.PredFrom {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		}
	}
	k := Key(sha256.Sum256(buf))
	kb.buf = buf
	keyScratch.Put(kb)
	return k
}

// parentsAscend reports whether every node's predecessor slots list its
// parents in ascending ID order.
func parentsAscend(c *dag.CSR) bool {
	for n := 0; n < c.NumNodes(); n++ {
		for s := c.PredOff[n] + 1; s < c.PredOff[n+1]; s++ {
			if c.PredFrom[s] < c.PredFrom[s-1] {
				return false
			}
		}
	}
	return true
}

// CompiledGraph is FAST's phase-1 analysis of one graph (paper
// §4.1–4.2), the plan every plan scheduler runs from: the CSR, the
// level tables, the CPN/IBN/OBN partition and both priority lists. All
// fields are read-only once built; a CompiledGraph may be shared freely
// across goroutines and runs.
type CompiledGraph struct {
	// CSR is the graph itself: every scheduler reads its adjacency here,
	// in stored slot order, and CSR.ToGraph rebuilds the graph exactly.
	CSR *dag.CSR
	// Levels holds the t-level, b-level, static level, ALAP table and
	// the topological order (Levels.Order) the levels were computed in.
	Levels *dag.Levels
	// Classes is the FAST CPN/IBN/OBN partition.
	Classes []dag.Class
	// CPNDominate is the paper's phase-1 priority list.
	CPNDominate []dag.NodeID
	// Blocking is the paper's blocking-node list: every non-CPN node,
	// in ID order — the neighborhood of FAST's local search.
	Blocking []dag.NodeID
}

// Compile validates g exactly as Graph.Validate does, then analyzes it
// once. Validation rides on the analysis: the CSR comes from Validate's
// checked flatten and the levels kernel's topological pass is the cycle
// check, so over an unchecked compile it adds only the per-slot checks,
// plus the mirror check on a graph CSR.ToGraph built (the only kind
// whose two adjacency sides can disagree). An invalid graph gets
// Validate's error (errors.Is matches the same dag sentinel); an empty
// one errors too.
func Compile(g *dag.Graph) (*CompiledGraph, error) {
	csr, l, err := g.ValidatedLevels()
	if err != nil {
		return nil, err
	}
	return analyze(csr, l), nil
}

// Schedule is the graph entry of a scheduler whose body is its plan
// entry: an empty g gets the scheduler's own error, any other g is
// compiled, which validates it, and handed to entry.
func Schedule(g *dag.Graph, procs int, empty error, entry func(*CompiledGraph, int) (*sched.Schedule, error)) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return nil, empty
	}
	cg, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return entry(cg, procs)
}

// CompileKeyed compiles g and trusts its caller to have validated it,
// as the batch engine does at admission. The key is unused: a plan
// carries no content key, and the parameter stays only for the callers
// that pass one. It errors only when g is empty or cyclic.
func CompileKeyed(g *dag.Graph, _ Key) (*CompiledGraph, error) {
	return compile(dag.BuildCSR(g))
}

// CompileCompact compiles a plan from a CSR alone. It trusts c, as the
// streaming readers and dag.FinishCSR validate what they build. The
// arena is unused and stays only for the callers that pass one. It
// errors only when c is empty or cyclic.
func CompileCompact(c *dag.CSR, _ *dag.ScaleArena) (*CompiledGraph, error) {
	return compile(c)
}

// compile is the unchecked constructors' shared body: the levels, then
// the rest of the analysis.
func compile(c *dag.CSR) (*CompiledGraph, error) {
	l, err := dag.ComputeLevelsCSR(c)
	if err != nil {
		return nil, err
	}
	return analyze(c, l), nil
}

// analyze derives the classification and both priority lists from the
// levels, all over the CSR.
func analyze(c *dag.CSR, l *dag.Levels) *CompiledGraph {
	cls := c.ClassifyCompactArena(&l.CompactLevels, nil)
	blocking := make([]dag.NodeID, 0, c.NumNodes())
	for i, cl := range cls {
		if cl != dag.CPN {
			blocking = append(blocking, dag.NodeID(i))
		}
	}
	return &CompiledGraph{
		CSR:         c,
		Levels:      l,
		Classes:     cls,
		CPNDominate: CPNDominateList(c, l, cls),
		Blocking:    blocking,
	}
}

// Static returns the static levels (computation-only b-levels).
func (cg *CompiledGraph) Static() []float64 { return cg.Levels.Static }

// CPNDominateList constructs the paper's CPN-Dominate list: critical
// path nodes in path order, each preceded by its yet-unlisted ancestors
// (larger b-levels first, ties by smaller t-level), followed by the
// out-branch nodes in decreasing b-level order.
//
// Note: the paper's §4.1 prose says OBNs are ordered by *increasing*
// b-level while the normative step (9) says *decreasing*. Decreasing is
// the only choice that keeps the list a topological order (a parent's
// b-level strictly exceeds its child's when node weights are positive),
// so decreasing is what we implement.
//
// It costs O(v log v + e): one sort of all nodes by step (5)'s key
// (larger b-level, then smaller t-level, then smaller ID) orders both
// every node's parents and the OBNs, and the CPNs are sorted on their
// own.
func CPNDominateList(c *dag.CSR, l *dag.Levels, cls []dag.Class) []dag.NodeID {
	v := c.NumNodes()
	byKey := make([]dag.NodeID, v)
	for i := range byKey {
		byKey[i] = dag.NodeID(i)
	}
	slices.SortFunc(byKey, func(a, b dag.NodeID) int {
		if c := cmp.Compare(l.BLevel[b], l.BLevel[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(l.TLevel[a], l.TLevel[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// parents[off[n]:off[n+1]] lists n's parents in the order step (5)
	// examines them. The key is a total order, so visiting nodes by key
	// and appending each to its children's lists leaves every list
	// sorted. The offsets are the CSR's predecessor offsets; fill starts
	// as them and ends as off[n+1].
	off := c.PredOff
	parents := make([]dag.NodeID, off[v])
	fill := slices.Clone(off[:v])
	for _, p := range byKey {
		for s := c.SuccOff[p]; s < c.SuccOff[p+1]; s++ {
			to := c.SuccTo[s]
			parents[fill[to]] = p
			fill[to]++
		}
	}

	list := make([]dag.NodeID, 0, v)
	inList := make([]bool, v)
	// include places n after recursively placing its unlisted ancestors,
	// larger b-levels first.
	var include func(n dag.NodeID)
	include = func(n dag.NodeID) {
		if inList[n] {
			return
		}
		for _, p := range parents[off[n]:off[n+1]] {
			include(p)
		}
		list = append(list, n)
		inList[n] = true
	}

	// CPNs in ascending t-level order; for a unique critical path this
	// is exactly the path order (entry CPN first).
	cpns := dag.NodesOfClass(cls, dag.CPN)
	slices.SortFunc(cpns, func(a, b dag.NodeID) int {
		if c := cmp.Compare(l.TLevel[a], l.TLevel[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, n := range cpns {
		include(n)
	}

	// Step (9): append the OBNs in decreasing b-level order — byKey's
	// order. An OBN may still have unlisted OBN ancestors when b-levels
	// tie; include handles that while preserving step (9)'s intent.
	for _, n := range byKey {
		if cls[n] == dag.OBN {
			include(n)
		}
	}
	return list
}
