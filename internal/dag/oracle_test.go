package dag

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The oracles below are the per-node []Edge forms of the analysis — a
// Kahn sort, the level folds and the classification sweep walking
// g.Pred/g.Succ directly — plus the map-based STG reader. The
// production code computes each of these once over the CSR; the tests
// in this file pin every entry point to the oracles element for
// element.

// topoOracle is Kahn's algorithm over the []Edge slices, picking the
// smallest ready ID by linear scan.
func topoOracle(g *Graph) ([]NodeID, error) {
	v := g.NumNodes()
	indeg := make([]int, v)
	var ready []NodeID
	for i := 0; i < v; i++ {
		if indeg[i] = g.InDegree(NodeID(i)); indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	order := make([]NodeID, 0, v)
	for len(ready) > 0 {
		min := 0
		for i := range ready {
			if ready[i] < ready[min] {
				min = i
			}
		}
		n := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, n)
		for _, e := range g.Succ(n) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != v {
		return nil, fmt.Errorf("dag: %w (%d of %d nodes ordered)", ErrCycle, len(order), v)
	}
	return order, nil
}

// oracleLevels is levelsOracle's result, independent of Levels' layout.
type oracleLevels struct {
	tlevel, blevel, static, alap []float64
	cpLen                        float64
	order                        []NodeID
}

func (l *oracleLevels) isCPN(n NodeID) bool {
	return l.tlevel[n]+l.blevel[n] >= l.cpLen-cpEps(l.cpLen)
}

// levelsOracle folds the t-, b- and static levels over the []Edge
// slices in topoOracle's order.
func levelsOracle(g *Graph) (*oracleLevels, error) {
	v := g.NumNodes()
	if v == 0 {
		return nil, fmt.Errorf("dag: cannot compute levels of an empty graph")
	}
	order, err := topoOracle(g)
	if err != nil {
		return nil, err
	}
	l := &oracleLevels{
		tlevel: make([]float64, v),
		blevel: make([]float64, v),
		static: make([]float64, v),
		alap:   make([]float64, v),
		order:  order,
	}
	for _, n := range order {
		t := 0.0
		for _, e := range g.Pred(n) {
			if cand := l.tlevel[e.From] + g.Weight(e.From) + e.Weight; cand > t {
				t = cand
			}
		}
		l.tlevel[n] = t
	}
	for i := v - 1; i >= 0; i-- {
		n := order[i]
		b, s := 0.0, 0.0
		for _, e := range g.Succ(n) {
			if cand := e.Weight + l.blevel[e.To]; cand > b {
				b = cand
			}
			if cand := l.static[e.To]; cand > s {
				s = cand
			}
		}
		l.blevel[n] = g.Weight(n) + b
		l.static[n] = g.Weight(n) + s
	}
	for _, n := range order {
		if sum := l.tlevel[n] + l.blevel[n]; sum > l.cpLen {
			l.cpLen = sum
		}
	}
	for _, n := range order {
		l.alap[n] = l.cpLen - l.blevel[n]
	}
	return l, nil
}

// classifyOracle marks, in reverse topological order, every node that
// reaches a CPN.
func classifyOracle(g *Graph, l *oracleLevels) []Class {
	v := g.NumNodes()
	cls := make([]Class, v)
	reaches := make([]bool, v)
	for i := v - 1; i >= 0; i-- {
		n := l.order[i]
		if l.isCPN(n) {
			reaches[n] = true
			cls[n] = CPN
			continue
		}
		for _, e := range g.Succ(n) {
			if reaches[e.To] {
				reaches[n] = true
				break
			}
		}
		if reaches[n] {
			cls[n] = IBN
		} else {
			cls[n] = OBN
		}
	}
	return cls
}

// readSTGOracle is the map-based STG reader: rows keyed by task id,
// then a *Graph built with AddEdge and checked with Validate.
func readSTGOracle(r io.Reader, defaultComm float64) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	nextFields := func() ([]string, error) {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if f := strings.Fields(line); len(f) > 0 {
				return f, nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	head, err := nextFields()
	if err != nil {
		return nil, fmt.Errorf("dag: stg: missing task count: %w", err)
	}
	n, err := strconv.Atoi(head[0])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("dag: stg: bad task count %q", head[0])
	}
	type row struct {
		cost  float64
		preds []int
	}
	// Keyed by id, never pre-sized by the untrusted header count.
	rows := make(map[int]row)
	for i := 0; i < n; i++ {
		f, err := nextFields()
		if err != nil {
			return nil, fmt.Errorf("dag: stg: expected %d task rows, got %d", n, i)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("dag: stg: short task row %q", strings.Join(f, " "))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("dag: stg: bad task id %q", f[0])
		}
		if _, dup := rows[id]; dup {
			return nil, fmt.Errorf("dag: stg: duplicate task id %d", id)
		}
		cost, err := strconv.ParseFloat(f[1], 64)
		if err != nil || cost < 0 {
			return nil, fmt.Errorf("dag: stg: bad cost %q for task %d", f[1], id)
		}
		np, err := strconv.Atoi(f[2])
		if err != nil || np < 0 || len(f) != 3+np {
			return nil, fmt.Errorf("dag: stg: task %d declares %s predecessors, row has %d ids", id, f[2], len(f)-3)
		}
		preds := make([]int, np)
		for j := range preds {
			p, err := strconv.Atoi(f[3+j])
			if err != nil || p < 0 || p >= n {
				return nil, fmt.Errorf("dag: stg: bad predecessor %q of task %d", f[3+j], id)
			}
			preds[j] = p
		}
		rows[id] = row{cost: cost, preds: preds}
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("t%d", i), rows[i].cost)
	}
	for i := 0; i < n; i++ {
		for _, p := range rows[i].preds {
			if err := g.AddEdge(NodeID(p), NodeID(i), defaultComm); err != nil {
				return nil, fmt.Errorf("dag: stg: %w", err)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dag: stg: %w", err)
	}
	return g, nil
}

// levelGraphs yields the differential corpus: the STG fixtures plus
// random DAGs with random insertion orders.
func levelGraphs(t *testing.T) []*Graph {
	t.Helper()
	var gs []*Graph
	for _, fix := range stgFixtures {
		g, err := readSTGOracle(strings.NewReader(fix), 2)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	for seed := int64(0); seed < 6; seed++ {
		gs = append(gs, randomGraph(t, 35, seed))
	}
	return gs
}

// tieDAG draws a random DAG whose node and edge weights are the
// integers 0–3, so equal and zero levels are common. Node IDs are a
// random permutation of a topological order and edges are inserted in
// random order, so neither ID order nor slot order is topological.
func tieDAG(rng *rand.Rand) *Graph {
	v := 1 + rng.Intn(48)
	g := New(v)
	for i := 0; i < v; i++ {
		g.AddNode("", float64(rng.Intn(4)))
	}
	rank := rng.Perm(v) // rank[id]: the node's position in a hidden topological order
	p := 0.05 + 0.3*rng.Float64()
	var edges [][2]NodeID
	for a := 0; a < v; a++ {
		for b := 0; b < v; b++ {
			if rank[a] < rank[b] && rng.Float64() < p {
				edges = append(edges, [2]NodeID{NodeID(a), NodeID(b)})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], float64(rng.Intn(4)))
	}
	return g
}

// checkLevels compares the full tables with the oracle's, element for
// element, including both widths of the order and IsCPN.
func checkLevels(t *testing.T, name string, got *Levels, want *oracleLevels) {
	t.Helper()
	checkCompact(t, name, &got.CompactLevels, want)
	if len(got.Static) != len(want.static) || len(got.ALAP) != len(want.alap) || len(got.Order) != len(want.order) {
		t.Fatalf("%s: table lengths %d/%d/%d, want %d", name, len(got.Static), len(got.ALAP), len(got.Order), len(want.order))
	}
	for n := range want.order {
		if got.Static[n] != want.static[n] || got.ALAP[n] != want.alap[n] {
			t.Fatalf("%s node %d: static/ALAP (%v,%v) != (%v,%v)", name, n,
				got.Static[n], got.ALAP[n], want.static[n], want.alap[n])
		}
		if got.Order[n] != want.order[n] {
			t.Fatalf("%s: order diverges at %d: %d != %d", name, n, got.Order[n], want.order[n])
		}
		if got.IsCPN(NodeID(n)) != want.isCPN(NodeID(n)) {
			t.Fatalf("%s node %d: IsCPN diverges", name, n)
		}
	}
}

// checkCompact compares the compact kernel's tables with the oracle's.
func checkCompact(t *testing.T, name string, got *CompactLevels, want *oracleLevels) {
	t.Helper()
	v := len(want.order)
	if len(got.TLevel) != v || len(got.BLevel) != v || len(got.Order) != v {
		t.Fatalf("%s: table lengths %d/%d/%d, want %d", name, len(got.TLevel), len(got.BLevel), len(got.Order), v)
	}
	if got.CPLen != want.cpLen {
		t.Fatalf("%s: CPLen %v != %v", name, got.CPLen, want.cpLen)
	}
	for n := 0; n < v; n++ {
		if got.TLevel[n] != want.tlevel[n] || got.BLevel[n] != want.blevel[n] {
			t.Fatalf("%s node %d: (%v,%v) != (%v,%v)", name, n,
				got.TLevel[n], got.BLevel[n], want.tlevel[n], want.blevel[n])
		}
		if NodeID(got.Order[n]) != want.order[n] {
			t.Fatalf("%s: compact order diverges at %d: %d != %d", name, n, got.Order[n], want.order[n])
		}
		if got.IsCPN(int32(n)) != want.isCPN(NodeID(n)) {
			t.Fatalf("%s node %d: compact IsCPN diverges", name, n)
		}
	}
}

func checkClasses(t *testing.T, name string, got, want []Class) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, want %d", name, len(got), len(want))
	}
	for n := range want {
		if got[n] != want[n] {
			t.Fatalf("%s node %d: class %v != %v", name, n, got[n], want[n])
		}
	}
}

// checkAnalysis runs every entry point of the analysis on g and pins
// it to the oracles: the *Graph adapters, the CSR tables, the compact
// kernel with and without an arena, the static fold and both
// classification entry points.
func checkAnalysis(t *testing.T, name string, g *Graph, a *ScaleArena) {
	t.Helper()
	want, err := levelsOracle(g)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	wantCls := classifyOracle(g, want)

	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatalf("%s: TopologicalOrder: %v", name, err)
	}
	if len(order) != len(want.order) {
		t.Fatalf("%s: TopologicalOrder has %d nodes, want %d", name, len(order), len(want.order))
	}
	for i := range order {
		if order[i] != want.order[i] {
			t.Fatalf("%s: TopologicalOrder diverges at %d: %d != %d", name, i, order[i], want.order[i])
		}
	}

	l, err := ComputeLevels(g)
	if err != nil {
		t.Fatalf("%s: ComputeLevels: %v", name, err)
	}
	checkLevels(t, name+"/ComputeLevels", l, want)
	checkClasses(t, name+"/Classify", Classify(g, l), wantCls)

	c := BuildCSR(g)
	lc, err := ComputeLevelsCSR(c)
	if err != nil {
		t.Fatalf("%s: ComputeLevelsCSR: %v", name, err)
	}
	checkLevels(t, name+"/ComputeLevelsCSR", lc, want)

	compact, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		t.Fatalf("%s: compact kernel: %v", name, err)
	}
	checkCompact(t, name+"/compact", compact, want)
	checkClasses(t, name+"/ClassifyCompactArena", c.ClassifyCompactArena(compact, nil), wantCls)

	a.Reset()
	var shell CompactLevels
	arena, err := c.ComputeLevelsCompactArena(&shell, a)
	if err != nil {
		t.Fatalf("%s: arena kernel: %v", name, err)
	}
	checkCompact(t, name+"/arena", arena, want)
	static := c.StaticLevels(arena, a)
	for n := range want.static {
		if static[n] != want.static[n] {
			t.Fatalf("%s node %d: arena static %v != %v", name, n, static[n], want.static[n])
		}
	}
	checkClasses(t, name+"/arena classes", c.ClassifyCompactArena(arena, a), wantCls)
}

func TestComputeLevelsCSRBitIdentical(t *testing.T) {
	for gi, g := range levelGraphs(t) {
		want, err := levelsOracle(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeLevelsCSR(BuildCSR(g))
		if err != nil {
			t.Fatal(err)
		}
		checkLevels(t, fmt.Sprintf("graph %d", gi), got, want)
	}
}

func TestComputeLevelsCompactMatches(t *testing.T) {
	shell := &CompactLevels{} // shared across graphs: exercises header reuse
	for gi, g := range levelGraphs(t) {
		want, err := levelsOracle(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildCSR(g).ComputeLevelsCompactArena(shell, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCompact(t, fmt.Sprintf("graph %d", gi), got, want)
	}
}

func TestClassifyCSRAndCompactMatch(t *testing.T) {
	for gi, g := range levelGraphs(t) {
		checkAnalysis(t, fmt.Sprintf("graph %d", gi), g, NewScaleArena())
	}
}

// TestAnalysisMatchesOracleOnTieHeavyDAGs runs every entry point
// against the oracles on DAGs whose integer weights 0–3 make ties and
// zero levels common, reusing one arena across all draws.
func TestAnalysisMatchesOracleOnTieHeavyDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := NewScaleArena()
	for i := 0; i < 400; i++ {
		checkAnalysis(t, fmt.Sprintf("draw %d", i), tieDAG(rng), a)
	}
}

// TestAnalysisErrorsMatchOracle pins the empty- and cyclic-graph
// failures of every entry point: the same sentinel and the same text.
func TestAnalysisErrorsMatchOracle(t *testing.T) {
	cyclic := New(3)
	for i := 0; i < 3; i++ {
		cyclic.AddNode("", 1)
	}
	cyclic.MustAddEdge(0, 1, 1)
	cyclic.MustAddEdge(1, 2, 1)
	cyclic.MustAddEdge(2, 1, 1)
	cases := []struct {
		name  string
		g     *Graph
		msg   string
		cycle bool
	}{
		{"empty", New(0), "dag: cannot compute levels of an empty graph", false},
		{"cyclic", cyclic, "dag: graph contains a cycle (1 of 3 nodes ordered)", true},
	}
	for _, tc := range cases {
		_, oracleErr := levelsOracle(tc.g)
		c := BuildCSR(tc.g)
		_, errLevels := ComputeLevels(tc.g)
		_, errCSR := ComputeLevelsCSR(c)
		_, errCompact := c.ComputeLevelsCompactArena(nil, nil)
		_, errArena := c.ComputeLevelsCompactArena(nil, NewScaleArena())
		for i, err := range []error{oracleErr, errLevels, errCSR, errCompact, errArena} {
			if err == nil || err.Error() != tc.msg {
				t.Fatalf("%s entry %d: err %v, want %q", tc.name, i, err, tc.msg)
			}
			if errors.Is(err, ErrCycle) != tc.cycle {
				t.Fatalf("%s entry %d: errors.Is(ErrCycle) = %v", tc.name, i, !tc.cycle)
			}
		}
		order, err := tc.g.TopologicalOrder()
		wantOrder, wantErr := topoOracle(tc.g)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || len(order) != len(wantOrder) {
			t.Fatalf("%s: TopologicalOrder (%v, %v), oracle (%v, %v)", tc.name, order, err, wantOrder, wantErr)
		}
	}
}

func TestComputeLevelsCSREmpty(t *testing.T) {
	empty := &CSR{PredOff: []int32{0}, SuccOff: []int32{0}}
	if _, err := ComputeLevelsCSR(empty); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := empty.ComputeLevelsCompactArena(nil, nil); err == nil {
		t.Fatal("empty graph accepted by compact kernel")
	}
}
