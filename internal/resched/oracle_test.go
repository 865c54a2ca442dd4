package resched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
)

// oraclePlanSuffix is PlanSuffix as resched implemented it before it ran
// through internal/fast: its own copy of FAST's two phases over the
// suffix subgraph, with boundary arrivals from the executed prefix and
// a full replay per search step. One edit makes it follow FAST's
// placement rule on a machine with every processor in use: phase 1
// scans the node's parents' surviving processors in predecessor order,
// then every survivor, and keeps the first strictly earliest start
// (the original scanned every survivor and kept the earliest finish,
// by more than 1e-12). PlanSuffix must match it bit for bit.
func oraclePlanSuffix(g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64, opts Options) (*SuffixPlan, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	v := g.NumNodes()
	if len(pre.Done) != v {
		return nil, fmt.Errorf("resched: prefix sized for %d nodes, graph has %d", len(pre.Done), v)
	}
	if len(survivors) == 0 {
		return nil, errors.New("resched: no surviving processors")
	}
	pl, err := newPlanner(g, pre, survivors, floor)
	if err != nil {
		return nil, err
	}
	if len(pl.orig) == 0 {
		return nil, errors.New("resched: crash report shows no unexecuted tasks")
	}
	if err := pl.priorityOrder(); err != nil {
		return nil, err
	}
	pl.initialPlacement()
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	var ctxErr error
	if maxSteps > 0 && len(survivors) > 1 {
		ctxErr = pl.search(ctx, maxSteps, rand.New(rand.NewSource(opts.Seed)))
	}
	plan := &SuffixPlan{
		Nodes:  append([]dag.NodeID(nil), pl.orig...),
		Proc:   append([]int(nil), pl.assign...),
		Start:  append([]float64(nil), pl.start...),
		Finish: append([]float64(nil), pl.finish...),
	}
	for _, f := range plan.Finish {
		if f > plan.Makespan {
			plan.Makespan = f
		}
	}
	return plan, ctxErr
}

// boundaryEdge is a message from an executed prefix parent into the
// suffix: the parent finished at finish on processor proc, and fetching
// its result from any other processor costs comm.
type boundaryEdge struct {
	proc   int
	finish float64
	comm   float64
}

// planner holds the suffix subgraph and the placement state of the
// repair search.
type planner struct {
	g        *dag.Graph
	pre      Prefix
	sub      *dag.Graph
	orig     []dag.NodeID // sub ID -> original ID
	subOf    []int        // original ID -> sub ID, -1 for prefix tasks
	list     []int        // phase-1 priority order (sub IDs, topological)
	boundary [][]boundaryEdge
	procs    []int
	floor    map[int]float64

	assign []int // sub ID -> processor
	start  []float64
	finish []float64
	length float64

	procReady map[int]float64 // scratch for evaluate
}

// newPlanner extracts the unexecuted suffix of g as its own graph (IDs
// remapped densely) and records the boundary arrivals from the executed
// prefix.
func newPlanner(g *dag.Graph, pre Prefix, survivors []int, floor map[int]float64) (*planner, error) {
	v := g.NumNodes()
	subOf := make([]int, v)
	var orig []dag.NodeID
	for i := 0; i < v; i++ {
		if pre.Done[i] {
			subOf[i] = -1
		} else {
			subOf[i] = len(orig)
			orig = append(orig, dag.NodeID(i))
		}
	}
	sub := dag.New(len(orig))
	for _, n := range orig {
		sub.AddNode(g.Label(n), g.Weight(n))
	}
	boundary := make([][]boundaryEdge, len(orig))
	for _, n := range orig {
		j := subOf[n]
		for _, e := range g.Pred(n) {
			if pj := subOf[e.From]; pj >= 0 {
				if err := sub.AddEdge(dag.NodeID(pj), dag.NodeID(j), e.Weight); err != nil {
					return nil, fmt.Errorf("resched: suffix extraction: %w", err)
				}
			} else {
				boundary[j] = append(boundary[j], boundaryEdge{
					proc:   pre.Proc[e.From],
					finish: pre.Finish[e.From],
					comm:   e.Weight,
				})
			}
		}
	}
	pl := &planner{
		g:         g,
		pre:       pre,
		sub:       sub,
		orig:      orig,
		subOf:     subOf,
		boundary:  boundary,
		procs:     survivors,
		floor:     floor,
		assign:    make([]int, len(orig)),
		start:     make([]float64, len(orig)),
		finish:    make([]float64, len(orig)),
		procReady: make(map[int]float64, len(survivors)),
	}
	return pl, nil
}

// priorityOrder builds FAST's phase-1 list over the suffix subgraph.
func (pl *planner) priorityOrder() error {
	cg, err := plan.Compile(pl.sub)
	if err != nil {
		return fmt.Errorf("resched: suffix plan: %w", err)
	}
	pl.list = make([]int, len(cg.CPNDominate))
	for i, n := range cg.CPNDominate {
		pl.list[i] = int(n)
	}
	return nil
}

// arrivalOn returns the earliest time sub node j's external inputs are
// available on processor p, given the current suffix placement for
// already-planned suffix parents.
func (pl *planner) arrivalOn(j, p int, planned []bool) float64 {
	t := 0.0
	for _, b := range pl.boundary[j] {
		a := b.finish
		if b.proc != p {
			a += b.comm
		}
		if a > t {
			t = a
		}
	}
	for _, e := range pl.sub.Pred(dag.NodeID(j)) {
		pj := int(e.From)
		if planned != nil && !planned[pj] {
			continue
		}
		a := pl.finish[pj]
		if pl.assign[pj] != p {
			a += e.Weight
		}
		if a > t {
			t = a
		}
	}
	return t
}

// initialPlacement is FAST's ready-time placement restricted to the
// survivors: each list node goes to the candidate that starts it
// earliest, the first one winning ties. The candidates are the
// surviving processors of the node's parents, in predecessor order,
// then every survivor.
func (pl *planner) initialPlacement() {
	ready := pl.procReady
	alive := make(map[int]bool, len(pl.procs))
	for _, p := range pl.procs {
		ready[p] = pl.floor[p]
		alive[p] = true
	}
	planned := make([]bool, len(pl.orig))
	for _, j := range pl.list {
		bestP, bestStart := -1, 0.0
		consider := func(p int) {
			if st := maxf(ready[p], pl.arrivalOn(j, p, planned)); bestP < 0 || st < bestStart {
				bestP, bestStart = p, st
			}
		}
		for _, e := range pl.g.Pred(pl.orig[j]) {
			p := pl.pre.Proc[e.From]
			if pj := pl.subOf[e.From]; pj >= 0 {
				p = pl.assign[pj]
			}
			if alive[p] {
				consider(p)
			}
		}
		for _, p := range pl.procs {
			consider(p)
		}
		pl.assign[j] = bestP
		pl.start[j] = bestStart
		pl.finish[j] = bestStart + pl.sub.Weight(dag.NodeID(j))
		ready[bestP] = pl.finish[j]
		planned[j] = true
	}
	pl.length = pl.evaluate()
}

// evaluate replays the suffix under the current assignment: nodes run in
// list order on their processors (the list is a topological order of the
// subgraph), starting no earlier than the processor's frontier and every
// input's arrival. It fills start/finish and returns the makespan of the
// suffix.
func (pl *planner) evaluate() float64 {
	ready := pl.procReady
	for _, p := range pl.procs {
		ready[p] = pl.floor[p]
	}
	length := 0.0
	for _, j := range pl.list {
		p := pl.assign[j]
		st := maxf(ready[p], pl.arrivalOn(j, p, nil))
		// arrivalOn with nil planned reads every suffix parent; parents
		// precede j in the topological list, so their times are current.
		fin := st + pl.sub.Weight(dag.NodeID(j))
		pl.start[j] = st
		pl.finish[j] = fin
		ready[p] = fin
		if fin > length {
			length = fin
		}
	}
	return length
}

// search is the budgeted greedy random walk of FAST's phase 2, applied
// to the suffix: move one random task to a random surviving processor,
// keep the move only when the replayed makespan strictly improves. On
// context expiry it stops and returns ctx.Err() with the best placement
// still committed.
func (pl *planner) search(ctx context.Context, maxSteps int, rng *rand.Rand) error {
	for step := 0; step < maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := pl.list[rng.Intn(len(pl.list))]
		p := pl.procs[rng.Intn(len(pl.procs))]
		if p == pl.assign[j] {
			continue
		}
		old := pl.assign[j]
		pl.assign[j] = p
		if l := pl.evaluate(); l < pl.length-1e-12 {
			pl.length = l
		} else {
			pl.assign[j] = old
			pl.length = pl.evaluate()
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
