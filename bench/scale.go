package main

import (
	"bytes"
	"math"
	"runtime"

	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/workload"
)

// scaleProcs is the processor count of every scale run, as in
// `fastsched -flat -procs 8`.
const scaleProcs = 8

// edgeList generates the layered scale graph (e ≈ 5v) as edge-list text.
func edgeList(v int, seed int64) (text []byte, edges int, err error) {
	var buf bytes.Buffer
	buf.Grow(94 * v) // ≈ the text size of the default layered graph
	_, edges, err = workload.WriteLayeredEdgeList(&buf, workload.LayeredOpts{V: v, Seed: seed})
	return buf.Bytes(), edges, err
}

// scaleRig is the million-node path of `fastsched -flat` with a reusable
// arena: every run after the first is warm.
type scaleRig struct {
	text  []byte
	arena *dag.ScaleArena
	hier  *fast.Hierarchical

	// The last run's graph and schedule, valid until the next run.
	csr  *dag.CSR
	flat *sched.Flat
}

func newScaleRig(text []byte, seed int64, sink obs.Sink) *scaleRig {
	arena := dag.NewScaleArena()
	return &scaleRig{
		text:  text,
		arena: arena,
		hier:  fast.NewHierarchical(fast.HierOptions{Seed: seed, Arena: arena, Metrics: sink}),
	}
}

// run parses, schedules and validates the graph once, recording a
// scale.run root span with one child per layer when tr is non-nil.
func (r *scaleRig) run(tr *tracer, req int64) error {
	r.arena.Reset()
	root := tr.begin("scale.run", -1, req)
	defer tr.end(root)

	sp := tr.begin("dag.parse", root, req)
	c, err := dag.StreamEdgeListArena(bytes.NewReader(r.text), r.arena)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("fast.hier", root, req)
	f, err := r.hier.ScheduleCSR(c, scaleProcs)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("sched.validate_flat", root, req)
	err = sched.ValidateFlat(c, f)
	tr.end(sp)
	r.csr, r.flat = c, f
	return err
}

// lowerBound is max(work / procs, computation-only critical path) of the
// last run's graph.
func (r *scaleRig) lowerBound() (float64, error) {
	p, err := plan.CompileCompact(r.csr, nil)
	if err != nil {
		return 0, err
	}
	cp := 0.0
	for _, s := range p.Static() {
		cp = math.Max(cp, s)
	}
	return math.Max(r.csr.TotalWork()/float64(scaleProcs), cp), nil
}

func runScale(cfg config, seed int64) (*result, error) {
	res := &result{}
	text, edges, err := edgeList(cfg.scaleV, seed)
	if err != nil {
		return nil, err
	}
	res.fact("input: layered edge list, v %d, e %d, %d bytes, procs %d", cfg.scaleV, edges, len(text), scaleProcs)

	base := liveHeap()
	var rig *scaleRig
	// A set-up is one cold run: a fresh arena grows to the graph's size.
	setups, err := timeSetups(cfg.scaleSetups, func() error {
		rig = newScaleRig(text, seed, nil)
		return rig.run(nil, -1)
	}, func() {
		rig = nil
		runtime.GC() // let the next arena reuse this one's memory
	})
	if err != nil {
		return nil, err
	}
	want := rig.flat.Length()

	var lengths []float64
	lr := closedLoop(1, cfg.window, cfg.scaleMinRuns, 0, 1, func(_, i int) error {
		if err := rig.run(nil, int64(i)); err != nil {
			return err
		}
		lengths = append(lengths, rig.flat.Length())
		return nil
	})
	var lats []float64
	for _, op := range lr.recs[0] {
		res.attempted++
		if op.err != nil {
			res.failed++
			continue
		}
		lats = append(lats, ms(op.lat))
	}
	for _, l := range lengths {
		if l != want { // the pipeline is deterministic: a warm run must equal the cold one
			res.failed++
		}
	}
	lb, err := rig.lowerBound()
	if err != nil {
		return nil, err
	}
	timingMetrics(res, setups, lr, lats, len(lats)*cfg.scaleV)
	res.add("makespan_over_lb", want/lb, "ratio", 1)
	res.add("heap_mb", heapMB(base), "MB", 1)
	res.fact("window: %d runs, makespan %v, lower bound %v, arena footprint %d bytes",
		len(lats), want, lb, rig.arena.Footprint())
	runtime.KeepAlive(text)
	return res, nil
}

func overheadScale(cfg config, seed int64) (pair, []*tracer, error) {
	text, _, err := edgeList(cfg.scaleV, seed)
	if err != nil {
		return pair{}, nil, err
	}
	rig := newScaleRig(text, seed, nil)
	if err := rig.run(nil, -1); err != nil {
		return pair{}, nil, err
	}
	k := int64(0)
	p, tr, err := alternate(2, func(tr *tracer) error {
		k++
		return rig.run(tr, k)
	})
	return p, []*tracer{tr}, err
}
