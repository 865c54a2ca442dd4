package fast

import (
	"errors"
	"fmt"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
)

// DefaultMaxClusters bounds the contracted graph the hierarchical
// scheduler hands to the inner FAST search. 2048 keeps the inner
// O(v²)-ish search machinery (state arrays, replay) in cache while
// leaving enough clusters for the splice to spread across any realistic
// processor count.
const DefaultMaxClusters = 2048

// HierOptions configures the hierarchical FAST scheduler.
type HierOptions struct {
	// Seed seeds the inner FAST search (same contract as Options.Seed).
	Seed int64
	// MaxSteps is the inner search budget (0 = DefaultMaxSteps,
	// negative disables the search).
	MaxSteps int
	// MaxClusters caps the contracted graph size (0 = DefaultMaxClusters).
	MaxClusters int
	// Metrics, when non-nil, receives hier.clusters, hier.contracted
	// and the inner search's telemetry.
	Metrics obs.Sink
	// Arena, when non-nil, supplies every O(v + e) dense array the
	// pipeline needs — levels, priority order, clustering, contraction
	// scratch and the schedule's own arrays. Warm re-runs after
	// Arena.Reset() then allocate nothing in these kernels (only the
	// inner search on the ≤ MaxClusters contracted graph still
	// allocates). An arena-backed scheduler is single-goroutine and its
	// returned schedules are invalidated by the next Reset; with a nil
	// Arena the scheduler is safe for concurrent use, as before.
	Arena *dag.ScaleArena
	// PinnedSplice restores the pre-balancing splice that keeps every
	// node on its cluster's processor (the PR 6 behavior). The default
	// work-stealing splice may move individual ready tasks to an idle
	// processor when that strictly lowers their start time; both are
	// deterministic.
	PinnedSplice bool
}

// Hierarchical is the million-node FAST variant: rather than running
// the local search over v nodes — where even the O(e) list scheduling
// pass is memory-bound and the search neighbourhood is astronomically
// large — it
//
//  1. clusters the graph with a linear-clustering pass in the style of
//     DSC/LC: walk the nodes in decreasing b-level priority order and
//     grow each cluster along the heaviest (comm + b-level) unassigned
//     successor chain, zeroing the dominant communication edges;
//  2. contracts clusters into a DAG of at most MaxClusters super-nodes
//     (summed weights, deduplicated summed-weight edges, strongly
//     connected components collapsed — linear clusters can induce
//     contracted cycles);
//  3. runs the full FAST two-phase algorithm on the contracted graph;
//  4. splices the result back, list-scheduling the original nodes in
//     priority order. Each node prefers its cluster's processor, and —
//     unless PinnedSplice is set — a node whose own processor is the
//     bottleneck (its queue, not its data, delays it) is stolen onto
//     the processor where it can start strictly earliest.
//
// Every phase is deterministic for a fixed seed — the splice is a
// sequential replay in a fixed priority order with a fixed tie-break,
// so its output is bit-identical regardless of GOMAXPROCS. The splice
// is an append-only list schedule, so the makespan is bounded by
// TotalWork + TotalComm (each blocking chain charges every node and
// edge at most once) — the same oracle envelope as the bounded
// schedulers.
type Hierarchical struct {
	opts HierOptions

	// Reusable levels shell for arena runs (opts.Arena != nil only;
	// nil-arena scheduling never touches it and stays concurrency-safe).
	levels dag.CompactLevels
}

// NewHierarchical returns a hierarchical FAST scheduler.
func NewHierarchical(opts HierOptions) *Hierarchical { return &Hierarchical{opts: opts} }

// Name implements sched.Scheduler.
func (h *Hierarchical) Name() string { return "FAST-H" }

// Instrument attaches a metrics sink (the command-line tools' hook).
func (h *Hierarchical) Instrument(sink obs.Sink, _ *obs.Trajectory) {
	h.opts.Metrics = sink
}

// Schedule implements sched.Scheduler: it compiles g, which validates
// it, and runs the plan entry. procs <= 0 means one processor per
// cluster.
func (h *Hierarchical) Schedule(g *dag.Graph, procs int) (*sched.Schedule, error) {
	if g.NumNodes() == 0 {
		return nil, errors.New("fast: empty graph")
	}
	cg, err := plan.Compile(g)
	if err != nil {
		return nil, err
	}
	return h.ScheduleCompiled(cg, procs)
}

// ScheduleCompiled runs against a pre-compiled graph: ScheduleCSR on
// the plan's CSR, a pure function of it.
func (h *Hierarchical) ScheduleCompiled(cg *plan.CompiledGraph, procs int) (*sched.Schedule, error) {
	return h.ScheduleCSR(cg.CSR, procs)
}

// ScheduleCSR is the native large-graph entry point: CSR in, dense
// schedule out, no *dag.Graph ever materialized for the full node set.
// With a nil arena, allocations are O(v) dense arrays plus the
// contracted CSR and its plan (≤ MaxClusters nodes); with
// HierOptions.Arena set, the dense arrays come from the arena and warm
// re-runs allocate only the contracted CSR, its plan and the inner
// search.
func (h *Hierarchical) ScheduleCSR(c *dag.CSR, procs int) (*sched.Flat, error) {
	v := c.NumNodes()
	if v == 0 {
		return nil, errors.New("fast: empty graph")
	}
	a := h.opts.Arena
	maxClusters := h.opts.MaxClusters
	if maxClusters <= 0 {
		maxClusters = DefaultMaxClusters
	}

	var lvlShell *dag.CompactLevels
	if a != nil {
		lvlShell = &h.levels
	}
	levels, err := c.ComputeLevelsCompactArena(lvlShell, a)
	if err != nil {
		return nil, err
	}

	// Priority order: decreasing b-level, ties by topological position.
	// b-level(parent) ≥ b-level(child) for non-negative weights, so with
	// the topological tie-break this is itself a valid topological order
	// — the splice replays it directly.
	prio := buildPriorityOrder(levels, v, a)

	cluster, vc := linearClusters(c, levels, prio, a)
	if vc > maxClusters {
		// Monotone fold: preserves cluster-id order (and thus priority
		// structure — lower ids were seeded by higher-priority nodes).
		for n := range cluster {
			cluster[n] = int32(int64(cluster[n]) * int64(maxClusters) / int64(vc))
		}
		vc = maxClusters
	}

	cc, clusterOf, err := contract(c, cluster, vc, a)
	if err != nil {
		return nil, fmt.Errorf("fast: hierarchical contraction: %w", err)
	}
	if sink := h.opts.Metrics; sink != nil {
		sink.Counter("hier.clusters").Add(int64(vc))
		sink.Counter("hier.contracted.nodes").Add(int64(cc.NumNodes()))
		sink.Counter("hier.contracted.edges").Add(int64(cc.NumEdges()))
	}

	inner := New(Options{
		Seed:     h.opts.Seed,
		MaxSteps: h.opts.MaxSteps,
		Metrics:  h.opts.Metrics,
	})
	icg, err := plan.CompileCompact(cc, nil)
	if err != nil {
		return nil, fmt.Errorf("fast: hierarchical inner search: %w", err)
	}
	is, err := inner.ScheduleCompiled(icg, procs)
	if err != nil {
		return nil, fmt.Errorf("fast: hierarchical inner search: %w", err)
	}

	sp := newSplice(c, clusterOf, is, procs, a)
	if h.opts.PinnedSplice {
		sp.pinned(c, prio, a)
	} else {
		sp.balanced(c, prio, a)
	}
	a.ReleaseI32(prio)
	a.ReleaseI32(clusterOf)
	return sched.FromArrays(h.Name(), sp.procs, sp.assign, sp.start, sp.finish), nil
}

// buildPriorityOrder returns the nodes sorted by decreasing b-level,
// ties broken by topological position (then ID, though topological
// positions are already unique). Counting-free: we sort indices with a
// bottom-up merge over int32 to avoid sort.Slice's interface overhead
// on 10⁶ elements — and to keep the comparison total and deterministic.
func buildPriorityOrder(l *dag.CompactLevels, v int, a *dag.ScaleArena) []int32 {
	pos := a.I32(v)
	for i, n := range l.Order {
		pos[n] = int32(i)
	}
	prio := a.I32(v)
	copy(prio, l.Order)
	less := func(x, y int32) bool {
		if l.BLevel[x] != l.BLevel[y] {
			return l.BLevel[x] > l.BLevel[y]
		}
		return pos[x] < pos[y]
	}
	// Bottom-up merge sort, stable. Starting from l.Order (a valid
	// topological order) makes equal-b-level runs already pos-ordered,
	// but stability guarantees the tie-break regardless.
	buf := a.I32(v)
	for width := 1; width < v; width *= 2 {
		for lo := 0; lo < v; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > v {
				mid = v
			}
			if hi > v {
				hi = v
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(prio[j], prio[i]) {
					buf[k] = prio[j]
					j++
				} else {
					buf[k] = prio[i]
					i++
				}
				k++
			}
			copy(buf[k:hi], prio[i:mid])
			copy(buf[k+mid-i:hi], prio[j:hi])
		}
		prio, buf = buf, prio
	}
	a.ReleaseI32(pos)
	a.ReleaseI32(buf)
	return prio
}

// linearClusters assigns every node to a linear cluster: walking the
// priority order, each yet-unassigned node seeds a new cluster that
// then follows the chain of the most critical unassigned successor
// (max comm weight + b-level — the successor whose incoming edge is
// most worth zeroing). Each node's successor list is scanned exactly
// once, so the pass is O(v + e).
func linearClusters(c *dag.CSR, l *dag.CompactLevels, prio []int32, a *dag.ScaleArena) (cluster []int32, vc int) {
	v := c.NumNodes()
	cluster = a.I32(v)
	for i := range cluster {
		cluster[i] = -1
	}
	next := int32(0)
	for _, seed := range prio {
		if cluster[seed] >= 0 {
			continue
		}
		id := next
		next++
		for n := seed; ; {
			cluster[n] = id
			best := int32(-1)
			bestKey := 0.0
			for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
				to := c.SuccTo[s]
				if cluster[to] >= 0 {
					continue
				}
				key := c.SuccW[s] + l.BLevel[to]
				// Strict > keeps the first (stored-order) maximum: the
				// slot order is part of the deterministic contract.
				if best < 0 || key > bestKey {
					best, bestKey = to, key
				}
			}
			if best < 0 {
				break
			}
			n = best
		}
	}
	return cluster, int(next)
}

// contract builds the cluster DAG: one node per cluster with the summed
// member weight, one edge per inter-cluster adjacency with the summed
// communication weight. Linear clusters can close cycles through other
// clusters (a1→a2 in one cluster plus a1→x→a2 outside), so strongly
// connected components of the contracted multigraph are collapsed.
// Returns the contracted CSR and the per-original-node super-cluster
// index aligned with the graph's node IDs. The CSR comes from
// dag.FinishCSR, which validates it: a summed weight that overflows to
// +Inf is an error. The cluster array and all O(v) scratch are released
// back to the arena; only super (the caller's) and the small contracted
// CSR survive.
func contract(c *dag.CSR, cluster []int32, vc int, a *dag.ScaleArena) (*dag.CSR, []int32, error) {
	v := c.NumNodes()

	// Counting-sort members by cluster so each cluster's out-edges are
	// visited contiguously — that is what lets a flat stamp array
	// deduplicate edges without a hash map.
	off := a.I32(vc + 1)
	for _, cl := range cluster {
		off[cl+1]++
	}
	for i := 0; i < vc; i++ {
		off[i+1] += off[i]
	}
	members := a.I32(v)
	fill := a.I32(vc)
	copy(fill, off[:vc])
	for n := 0; n < v; n++ { // ID order → members sorted within cluster
		cl := cluster[n]
		members[fill[cl]] = int32(n)
		fill[cl]++
	}

	nodeW := a.F64(vc)
	var efrom, eto []int32
	var ew []float64
	stamp := a.I32(vc) // stamp[cv] = cu+1 when edge cu→cv already open
	slot := a.I32(vc)  // its index in the edge arrays
	for cu := int32(0); cu < int32(vc); cu++ {
		for m := off[cu]; m < off[cu+1]; m++ {
			n := members[m]
			nodeW[cu] += c.NodeW[n]
			for s := c.SuccOff[n]; s < c.SuccOff[n+1]; s++ {
				cv := cluster[c.SuccTo[s]]
				if cv == cu {
					continue
				}
				if stamp[cv] == cu+1 {
					ew[slot[cv]] += c.SuccW[s]
					continue
				}
				stamp[cv] = cu + 1
				slot[cv] = int32(len(efrom))
				efrom = a.AppendI32(efrom, cu)
				eto = a.AppendI32(eto, cv)
				ew = a.AppendF64(ew, c.SuccW[s])
			}
		}
	}
	a.ReleaseI32(members)
	a.ReleaseI32(fill)

	scc, nscc := condense(vc, efrom, eto, a)

	// The contracted CSR keeps sccW and the edge arrays, so they come
	// from the heap, not the arena.
	sccW := make([]float64, nscc)
	for cl, w := range nodeW {
		sccW[scc[cl]] += w
	}
	// Re-deduplicate edges at the SCC level. Edges are grouped by
	// source via another counting sort to reuse the stamp trick.
	eoff := a.I32(nscc + 1)
	for i := range efrom {
		eoff[scc[efrom[i]]+1]++
	}
	for i := 0; i < nscc; i++ {
		eoff[i+1] += eoff[i]
	}
	eorder := a.I32(len(efrom))
	efill := a.I32(nscc)
	copy(efill, eoff[:nscc])
	for i := range efrom { // original append order → deterministic within source
		su := scc[efrom[i]]
		eorder[efill[su]] = int32(i)
		efill[su]++
	}
	estamp := stamp // reuse: both vc-sized, nscc <= vc
	eslot := slot
	clear(estamp[:nscc])
	clear(eslot[:nscc])
	var cfrom, cto []int32
	var cw []float64
	for su := int32(0); su < int32(nscc); su++ {
		for k := eoff[su]; k < eoff[su+1]; k++ {
			i := eorder[k]
			sv := scc[eto[i]]
			if sv == su {
				continue // intra-SCC edge, absorbed by the collapse
			}
			if estamp[sv] == su+1 {
				cw[eslot[sv]] += ew[i]
				continue
			}
			estamp[sv] = su + 1
			eslot[sv] = int32(len(cfrom))
			cfrom = append(cfrom, su)
			cto = append(cto, sv)
			cw = append(cw, ew[i])
		}
	}

	super := a.I32(v)
	for n := 0; n < v; n++ {
		super[n] = scc[cluster[n]]
	}
	a.ReleaseI32(cluster)
	a.ReleaseI32(off)
	a.ReleaseF64(nodeW)
	a.ReleaseI32(stamp)
	a.ReleaseI32(slot)
	a.ReleaseI32(efrom)
	a.ReleaseI32(eto)
	a.ReleaseF64(ew)
	a.ReleaseI32(scc)
	a.ReleaseI32(eoff)
	a.ReleaseI32(eorder)
	a.ReleaseI32(efill)
	cc, err := dag.FinishCSR(sccW, cfrom, cto, cw, 0)
	if err != nil {
		a.ReleaseI32(super)
		return nil, nil, err
	}
	return cc, super, nil
}

// condense computes strongly connected components of the (vc, edges)
// digraph with an iterative Tarjan, then renumbers components into a
// topological order (Tarjan emits them in reverse topological order).
// Deterministic: the DFS visits nodes and edge slots in stored order.
// All scratch except the returned scc array is released back to a.
func condense(vc int, efrom, eto []int32, a *dag.ScaleArena) (scc []int32, nscc int) {
	// Adjacency in CSR form.
	aoff := a.I32(vc + 1)
	for _, f := range efrom {
		aoff[f+1]++
	}
	for i := 0; i < vc; i++ {
		aoff[i+1] += aoff[i]
	}
	adj := a.I32(len(efrom))
	afill := a.I32(vc)
	copy(afill, aoff[:vc])
	for i, f := range efrom {
		adj[afill[f]] = eto[i]
		afill[f]++
	}

	const unvisited = -1
	index := a.I32(vc)
	low := a.I32(vc)
	onStack := a.Bool(vc)
	for i := range index {
		index[i] = unvisited
	}
	scc = a.I32(vc)
	stack := a.I32(vc)[:0]
	// Explicit DFS frames: node and the next adjacency slot to explore.
	frameN := a.I32(vc)[:0]
	frameSlot := a.I32(vc)[:0]
	var counter int32

	for root := int32(0); root < int32(vc); root++ {
		if index[root] != unvisited {
			continue
		}
		frameN = append(frameN[:0], root)
		frameSlot = append(frameSlot[:0], aoff[root])
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frameN) > 0 {
			top := len(frameN) - 1
			n := frameN[top]
			if frameSlot[top] < aoff[n+1] {
				m := adj[frameSlot[top]]
				frameSlot[top]++
				if index[m] == unvisited {
					frameN = append(frameN, m)
					frameSlot = append(frameSlot, aoff[m])
					index[m], low[m] = counter, counter
					counter++
					stack = append(stack, m)
					onStack[m] = true
				} else if onStack[m] && index[m] < low[n] {
					low[n] = index[m]
				}
				continue
			}
			frameN = frameN[:top]
			frameSlot = frameSlot[:top]
			if top > 0 {
				if p := frameN[top-1]; low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] { // n is an SCC root
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc[m] = int32(nscc)
					if m == n {
						break
					}
				}
				nscc++
			}
		}
	}
	// Tarjan numbers components in reverse topological order; flip so
	// the contracted graph's node IDs ascend along the partial order
	// (matching the id-ascending habits of the rest of the codebase).
	for i := range scc {
		scc[i] = int32(nscc-1) - scc[i]
	}
	a.ReleaseI32(aoff)
	a.ReleaseI32(adj)
	a.ReleaseI32(afill)
	a.ReleaseI32(index)
	a.ReleaseI32(low)
	a.ReleaseI32(stack[:0])
	a.ReleaseI32(frameN[:0])
	a.ReleaseI32(frameSlot[:0])
	return scc, nscc
}

// splice holds the arrays the splice fills and hands to
// sched.FromArrays: each node's processor and slot, and the processor
// count the splice schedules onto.
type splice struct {
	procs         int
	assign        []int32
	start, finish []float64
}

// newSplice pins every node to its super-cluster's processor in the
// inner schedule. The processor count is procs when given, one past the
// highest pinned processor when procs <= 0.
func newSplice(c *dag.CSR, super []int32, inner *sched.Schedule, procs int, a *dag.ScaleArena) splice {
	v := c.NumNodes()
	f := splice{procs: procs, assign: a.I32(v), start: a.F64(v), finish: a.F64(v)}
	maxProc := 0
	for n := 0; n < v; n++ {
		p := inner.Proc(dag.NodeID(super[n]))
		f.assign[n] = int32(p)
		if p > maxProc {
			maxProc = p
		}
	}
	if procs <= 0 {
		f.procs = maxProc + 1
	}
	return f
}

// pinned replays the original nodes in priority order (a valid
// topological order) with each node pinned to its super-cluster's
// processor: start = max(processor ready time, latest parent arrival),
// communication charged only across processors. A fixed-assignment
// list schedule — every blocking chain charges each node and edge at
// most once, so the makespan is ≤ TotalWork + TotalComm.
func (f *splice) pinned(c *dag.CSR, prio []int32, a *dag.ScaleArena) {
	ready := a.F64(f.procs)
	for _, n := range prio {
		p := f.assign[n]
		start := ready[p]
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			arrival := f.finish[from]
			if f.assign[from] != p {
				arrival += c.PredW[s]
			}
			if arrival > start {
				start = arrival
			}
		}
		f.start[n] = start
		f.finish[n] = start + c.NodeW[n]
		ready[p] = f.finish[n]
	}
	a.ReleaseF64(ready)
}

// balanced is the work-stealing splice: the same priority-order
// replay as pinned, but a node whose pinned processor is the
// bottleneck — its queue delays it beyond its data arrival — is stolen
// onto the processor where it starts strictly earliest, communication
// recharged accordingly. Each node's candidate start on every
// processor is evaluated in O(deg + P) via a three-term decomposition
// of the data-arrival max, so the pass stays O(e + v·P).
//
// Determinism: the replay is sequential in priority order (the node's
// position is its stamp), the pinned processor wins ties, and among
// strictly better processors the lowest index wins — so the schedule
// is a pure function of the CSR and the inner schedule, bit-identical
// regardless of GOMAXPROCS. The envelope argument of pinned
// still applies: the schedule is append-only per processor and every
// start equals either its processor's previous finish or a parent's
// arrival, so blocking chains charge each node and edge at most once
// and the makespan stays ≤ TotalWork + TotalComm.
func (f *splice) balanced(c *dag.CSR, prio []int32, a *dag.ScaleArena) {
	P := f.procs
	ready := a.F64(P)
	// Per-node scratch for the arrival decomposition, stamp-validated so
	// it never needs clearing between nodes.
	localMax := a.F64(P)   // max parent finish per processor (no comm)
	localStamp := a.I32(P) // node stamp for localMax validity
	for i := range localStamp {
		localStamp[i] = -1
	}
	for stamp, n := range prio {
		p := f.assign[n]
		// Decompose data arrival: for candidate processor q,
		//   dat(q) = max( localMax[q],  q == m1p ? m2 : m1 )
		// where m1 is the max remote-charged arrival (finish + comm) over
		// all parents, m1p the processor of the first parent achieving it,
		// and m2 the max over parents on other processors than m1p.
		var m1, m2 float64
		m1p := int32(-1)
		for s := c.PredOff[n]; s < c.PredOff[n+1]; s++ {
			from := c.PredFrom[s]
			fp := f.assign[from]
			arr := f.finish[from] + c.PredW[s]
			if arr > m1 || m1p < 0 {
				if m1p >= 0 && fp != m1p && m1 > m2 {
					m2 = m1
				}
				m1, m1p = arr, fp
			} else if fp != m1p && arr > m2 {
				m2 = arr
			}
			if localStamp[fp] != int32(stamp) {
				localStamp[fp] = int32(stamp)
				localMax[fp] = f.finish[from]
			} else if f.finish[from] > localMax[fp] {
				localMax[fp] = f.finish[from]
			}
		}
		dat := func(q int32) float64 {
			d := m1
			if q == m1p {
				d = m2
			}
			if localStamp[q] == int32(stamp) && localMax[q] > d {
				d = localMax[q]
			}
			return d
		}
		datP := dat(p)
		best, bestStart := p, ready[p]
		if bestStart < datP {
			bestStart = datP
		}
		if ready[p] > datP {
			// The pinned processor, not the data, is the bottleneck: the
			// EST frontier has slack somewhere. Steal to the strictly
			// earliest start; lowest processor index breaks ties.
			for q := int32(0); q < int32(P); q++ {
				if q == p {
					continue
				}
				st := dat(q)
				if r := ready[q]; r > st {
					st = r
				}
				if st < bestStart {
					best, bestStart = q, st
				}
			}
		}
		f.assign[n] = best
		f.start[n] = bestStart
		f.finish[n] = bestStart + c.NodeW[n]
		ready[best] = f.finish[n]
	}
	a.ReleaseF64(ready)
	a.ReleaseF64(localMax)
	a.ReleaseI32(localStamp)
}
