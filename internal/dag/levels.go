package dag

import "errors"

// CompactLevels is the index-compact analysis the level kernel
// computes: t-level, b-level and the topological order, 20 bytes per
// node. It is all the large-graph path needs; Levels extends it with
// the tables the *Graph schedulers read.
type CompactLevels struct {
	TLevel []float64 // length of the longest path from an entry node to n, excluding w(n); the ASAP start time
	BLevel []float64 // length of the longest path from n to an exit node, including w(n)
	Order  []int32   // topological order, smallest-ID-first Kahn
	CPLen  float64   // critical-path length: max over nodes of t-level + b-level
}

// IsCPN reports whether n is a critical-path node, i.e. whether its
// ASAP and ALAP times coincide (equivalently t-level + b-level = CP).
func (l *CompactLevels) IsCPN(n int32) bool {
	return l.TLevel[n]+l.BLevel[n] >= l.CPLen-cpEps(l.CPLen)
}

// Levels holds the per-node attributes used by scheduling heuristics:
// the compact tables plus the static level, the ALAP time and the
// order as NodeIDs. All tables are indexed by NodeID.
type Levels struct {
	CompactLevels
	Static []float64 // static b-level: b-level with communication costs ignored
	ALAP   []float64 // as-late-as-possible start time: CP - b-level
	Order  []NodeID  // the topological order the levels were computed in
}

// ASAP returns the as-soon-as-possible start time of n (an alias of the
// t-level, as defined in the paper).
func (l *Levels) ASAP(n NodeID) float64 { return l.TLevel[n] }

// IsCPN reports whether n is a critical-path node.
func (l *Levels) IsCPN(n NodeID) bool { return l.CompactLevels.IsCPN(int32(n)) }

// cpEps is the tolerance for float comparisons against the CP length,
// scaled to the magnitude of the values involved.
func cpEps(cp float64) float64 {
	const rel = 1e-9
	if cp < 1 {
		return rel
	}
	return cp * rel
}

// ComputeLevels computes the t-level, b-level, static level and ALAP
// time of every node in O(v + e) time. It returns an error if the graph
// is cyclic or empty.
func ComputeLevels(g *Graph) (*Levels, error) { return ComputeLevelsCSR(BuildCSR(g)) }

// ComputeLevelsCSR is ComputeLevels on a CSR: the level kernel, the
// static-level fold, the ALAP table and the order widened to NodeIDs.
func ComputeLevelsCSR(c *CSR) (*Levels, error) {
	l := &Levels{}
	if _, err := c.ComputeLevelsCompactArena(&l.CompactLevels, nil); err != nil {
		return nil, err
	}
	l.Static = c.StaticLevels(&l.CompactLevels, nil)
	l.ALAP = make([]float64, len(l.BLevel))
	for n, b := range l.BLevel {
		l.ALAP[n] = l.CPLen - b
	}
	l.Order = widen(l.CompactLevels.Order)
	return l, nil
}

// ComputeLevelsCompactArena is the level kernel: one smallest-ID-first
// Kahn order, then t-levels folded forward over the predecessor slots
// and b-levels backward over the successor slots, each max fold
// visiting candidates in stored slot order. It writes into l (nil
// allocates a fresh header) with every table drawn from a; a nil arena
// falls back to make. With a non-nil arena the tables are re-acquired
// every call — pass the same l to reuse its header, not its arrays —
// and are invalidated by the arena's Reset.
func (c *CSR) ComputeLevelsCompactArena(l *CompactLevels, a *ScaleArena) (*CompactLevels, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, errors.New("dag: cannot compute levels of an empty graph")
	}
	if l == nil {
		l = &CompactLevels{}
	}
	l.CPLen = 0
	l.TLevel = a.F64(v)
	l.BLevel = a.F64(v)
	order, err := c.topoOrderArenaInto(a.I32(v)[:0], a)
	if err != nil {
		return nil, err
	}
	l.Order = order
	// t(n) = max over parents p of t(p)+w(p)+c(p,n).
	for _, n := range order {
		t := 0.0
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			p := c.PredFrom[s]
			cand := l.TLevel[p] + c.NodeW[p] + c.PredW[s]
			if cand > t {
				t = cand
			}
		}
		l.TLevel[n] = t
	}
	// b(n) = w(n) + max over children ch of c(n,ch)+b(ch).
	for i := v - 1; i >= 0; i-- {
		n := order[i]
		b := 0.0
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if cand := c.SuccW[s] + l.BLevel[c.SuccTo[s]]; cand > b {
				b = cand
			}
		}
		l.BLevel[n] = c.NodeW[n] + b
	}
	for _, n := range order {
		if sum := l.TLevel[n] + l.BLevel[n]; sum > l.CPLen {
			l.CPLen = sum
		}
	}
	return l, nil
}

// StaticLevels returns every node's static level — its b-level with
// communication ignored — folded backward along l's order over the
// successor slots. The table is drawn from a (nil falls back to make).
func (c *CSR) StaticLevels(l *CompactLevels, a *ScaleArena) []float64 {
	static := a.F64(c.NumNodes())
	for i := len(l.Order) - 1; i >= 0; i-- {
		n := l.Order[i]
		st := 0.0
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if cand := static[c.SuccTo[s]]; cand > st {
				st = cand
			}
		}
		static[n] = c.NodeW[n] + st
	}
	return static
}

// PriorityOrder returns the nodes of order sorted by decreasing key,
// ties kept in their position in order. With order topological and a
// key that never rises from parent to child (b-level, static level)
// the result is itself a topological order. It is SortByKey on a copy
// of order, so O(v) from the radix cutoff up; the copy and the
// kernel's scratch are drawn from a (nil falls back to make) and the
// scratch is released.
func PriorityOrder(key []float64, order []int32, a *ScaleArena) []int32 {
	prio, buf := a.I32(len(order)), a.I32(len(order))
	copy(prio, order)
	SortByKey(prio, key, true, buf)
	a.ReleaseI32(buf)
	return prio
}

// PriorityOrder is the package function over l's topological order,
// widened to NodeIDs.
func (l *Levels) PriorityOrder(key []float64) []NodeID {
	return widen(PriorityOrder(key, l.CompactLevels.Order, nil))
}

// CriticalPath returns one critical path of the graph as a sequence of
// nodes from an entry node to an exit node, chosen deterministically
// (smallest ID among ties). The path's nodes are all CPNs.
func CriticalPath(g *Graph, l *Levels) []NodeID {
	// Start at the entry CPN with the largest b-level (== CPLen).
	start := None
	for _, n := range g.EntryNodes() {
		if l.IsCPN(n) && (start == None || l.BLevel[n] > l.BLevel[start]) {
			start = n
		}
	}
	if start == None {
		return nil
	}
	path := []NodeID{start}
	cur := start
	for g.OutDegree(cur) > 0 {
		next := None
		for _, e := range g.Succ(cur) {
			// The CP successor continues the longest path:
			// b(cur) = w(cur) + c(cur,next) + b(next), and next is a CPN.
			if !l.IsCPN(e.To) {
				continue
			}
			cont := g.Weight(cur) + e.Weight + l.BLevel[e.To]
			if cont >= l.BLevel[cur]-cpEps(l.CPLen) && (next == None || e.To < next) {
				next = e.To
			}
		}
		if next == None {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Class is the FAST node classification.
type Class uint8

const (
	// CPN: a node on a critical path (t-level + b-level == CP length).
	CPN Class = iota
	// IBN (in-branch node): not a CPN, but some path from it reaches a CPN.
	IBN
	// OBN (out-branch node): neither a CPN nor an IBN.
	OBN
)

// String returns the conventional abbreviation of the class.
func (c Class) String() string {
	switch c {
	case CPN:
		return "CPN"
	case IBN:
		return "IBN"
	default:
		return "OBN"
	}
}

// Classify partitions g's nodes into CPNs, IBNs and OBNs in O(v + e)
// time; it is ClassifyCompactArena on g's CSR.
func Classify(g *Graph, l *Levels) []Class {
	return BuildCSR(g).ClassifyCompactArena(&l.CompactLevels, nil)
}

// ClassifyCompactArena is the classification sweep: a reverse
// topological pass over l's order marks every node that can reach a
// CPN. The class table and the reachability bitmap are drawn from a
// (nil falls back to make); an arena-backed table is invalidated by the
// arena's Reset.
func (c *CSR) ClassifyCompactArena(l *CompactLevels, a *ScaleArena) []Class {
	v := c.NumNodes()
	cls := a.Cls(v)
	reaches := a.Bool(v) // reaches[n]: some path n ->* CPN exists
	for i := v - 1; i >= 0; i-- {
		n := l.Order[i]
		if l.IsCPN(n) {
			reaches[n] = true
			cls[n] = CPN
			continue
		}
		cls[n] = OBN
		for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
			if reaches[c.SuccTo[s]] {
				reaches[n] = true
				cls[n] = IBN
				break
			}
		}
	}
	return cls
}

// NodesOfClass returns the IDs with the given class, in ID order.
func NodesOfClass(cls []Class, want Class) []NodeID {
	var out []NodeID
	for i, c := range cls {
		if c == want {
			out = append(out, NodeID(i))
		}
	}
	return out
}
