package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/fast"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/resched"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
)

// The traced run is one fixed ledger of every layer, the same for every
// workload, plus the tracing overhead of the named workload's own
// operation. Each layer is timed by spans recorded here, around direct
// calls into its public entry points, on inputs drawn from the seed:
//
//   - two traced schedd windows (the serve-hot pool and a cold pool that
//     never repeats) for the server and batch layers;
//   - a direct-call replay of request bodies, split into
//     dag.decode → dag.validate → plan.key → plan.compile →
//     fast.schedule → sched.clone, as the request path runs them;
//   - the scale pipeline at two sizes, split into parse, hier and
//     validate, plus the levels kernel alone;
//   - one online-crash stream with the engine's counters, and a
//     crash-repair sample comparing resched.Repair with a full replan.

// Seeds of the ledger's inputs, offset from the run's seed so they
// differ from the workloads' own.
const (
	ledgerServeSeed   = 101
	ledgerScaleSeed   = 102
	ledgerOnlineSeed  = 103
	ledgerReschedSeed = 104
)

func runLedger(name string, ov overheadFunc, cfg config, seed int64) (*result, []*tracer, error) {
	res := &result{}
	p, tracers, err := ov(cfg, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("overhead pair: %w", err)
	}
	res.add("trace.overhead_ratio", p.ratio, "ratio", 1)
	res.add("op.wall_ms_p50", p.wallMS, "ms", 1)
	res.fact("trace.overhead_ratio: median traced over untraced %s operation; op.wall_ms_p50: the untraced median, one operation at a time", name)
	runtime.GC() // free the overhead pair's system before the ledger allocates

	served, err := ledgerServe(res, cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer(time.Now())
	tracers = append(append(tracers, served...), tr)
	for _, step := range []func(*result, *tracer, config, int64) error{
		ledgerReplay, ledgerScale, ledgerOnline, ledgerResched,
	} {
		if err := step(res, tr, cfg, seed); err != nil {
			return nil, nil, err
		}
	}
	cov := math.Min(tr.minCoverage("replay"), tr.minCoverage("scale.run"))
	res.add("trace.coverage_min", cov, "ratio", len(tr.spans))
	if cov < 0.95 {
		res.failed++
		res.fact("child spans cover only %.3f of a root span (need 0.95)", cov)
	}
	return res, tracers, nil
}

// ledgerServe runs one traced schedd window on the hot pool and one on
// a pool that never repeats.
func ledgerServe(res *result, cfg config, seed int64) ([]*tracer, error) {
	hot, err := drawServe(cfg, seed+ledgerServeSeed, cfg.hotPool)
	if err != nil {
		return nil, err
	}
	cold, warm, err := splitCold(cfg, seed+ledgerServeSeed, cfg.ledgerCold)
	if err != nil {
		return nil, err
	}
	var tracers []*tracer
	for _, k := range []struct {
		suffix     string
		pool, warm []request
		limit      int
	}{{".hot", hot, hot, 0}, {".cold", cold, warm, len(cold)}} {
		rig, err := startServe()
		if err != nil {
			return nil, err
		}
		err = rig.warm(k.warm)
		var w *serveWindow
		if err == nil {
			w = rig.window(k.pool, 0, cfg.ledgerWindow, 1, k.limit, 0, true)
		}
		rig.stop()
		if err != nil {
			return nil, err
		}
		failed, _ := checkWindow(k.pool, w)
		res.attempted += len(w.ops)
		res.failed += w.failures + failed
		tracers = append(tracers, w.tracers...)

		var self, engine []float64
		hits, coalesced, respBytes := 0, 0, 0
		for _, op := range w.ops {
			self = append(self, ms(op.lat-op.engine))
			engine = append(engine, ms(op.engine))
			respBytes += op.bytes
			switch op.cache {
			case "hit":
				hits++
			case "coalesced":
				coalesced++
			}
		}
		n := len(w.ops)
		res.add("server.self_ms_p50"+k.suffix, quantile(self, 0.5), "ms", n)
		res.add("server.self_ms_p99"+k.suffix, quantile(self, 0.99), "ms", n)
		res.add("server.resp_bytes_mean"+k.suffix, float64(respBytes)/float64(n), "B", n)
		res.add("batch.engine_ms_p50"+k.suffix, quantile(engine, 0.5), "ms", n)
		res.add("batch.engine_ms_p99"+k.suffix, quantile(engine, 0.99), "ms", n)
		res.add("batch.result_hit_ratio"+k.suffix, float64(hits)/float64(n), "ratio", n)
		res.add("batch.coalesced_ratio"+k.suffix, float64(coalesced)/float64(n), "ratio", n)
	}
	return tracers, nil
}

// ledgerReplay replays request bodies through the request path's layers
// by direct calls, one span per layer under a replay root.
func ledgerReplay(res *result, tr *tracer, cfg config, seed int64) error {
	bodies, err := drawServe(cfg, seed+ledgerServeSeed, cfg.replayN)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	edges := 0
	for rep := 0; rep < cfg.replayReps; rep++ {
		for j, rq := range bodies {
			res.attempted++
			s, err := replay(tr, reg, rq, int64(rep*len(bodies)+j))
			var g *dag.Graph
			if err == nil {
				g, err = rq.graph()
			}
			if err == nil {
				err = sched.Validate(g, s)
			}
			if err != nil {
				res.failed++
				res.fact("replay %d: %v", j, err)
			}
			edges += rq.edges
		}
	}
	d := tr.durations()
	for _, name := range []string{"dag.decode", "dag.validate", "plan.key", "plan.compile", "fast.schedule", "sched.clone"} {
		res.add(name+"_ms_p50", median(msAll(d[name])), "ms", len(d[name]))
	}
	perEdge := func(name string) float64 {
		var total time.Duration
		for _, x := range d[name] {
			total += x
		}
		return float64(total) / float64(edges)
	}
	res.add("dag.decode_ns_per_edge", perEdge("dag.decode"), "ns/edge", len(d["dag.decode"]))
	res.add("fast.schedule_ns_per_edge", perEdge("fast.schedule"), "ns/edge", len(d["fast.schedule"]))
	tried := reg.Counter("fast.search.steps_tried").Value()
	res.add("fast.search_accept_ratio", float64(reg.Counter("fast.search.accepted").Value())/float64(tried), "ratio", int(tried))
	return nil
}

// replay runs one request body through decode, validation, hashing,
// compilation, FAST and the result clone, as schedd does on a miss.
func replay(tr *tracer, reg *obs.Registry, rq request, req int64) (*sched.Schedule, error) {
	root := tr.begin("replay", -1, req)
	defer tr.end(root)
	sp := tr.begin("dag.decode", root, req)
	var body submitBody
	err := json.Unmarshal(rq.body, &body)
	var g *dag.Graph
	if err == nil {
		g, _, err = dag.ReadJSON(bytes.NewReader(body.Graph))
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("dag.validate", root, req)
	err = g.Validate()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.key", root, req)
	key := plan.GraphKey(g)
	tr.end(sp)
	sp = tr.begin("plan.compile", root, req)
	cg, err := plan.CompileKeyed(g, key)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fast.schedule", root, req)
	f := fast.New(fast.Options{Seed: body.Seed})
	f.Instrument(reg, nil)
	s, err := f.ScheduleCompiled(cg, body.Procs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sched.clone", root, req)
	out := s.Clone()
	tr.end(sp)
	return out, nil
}

// ledgerScale runs the scale pipeline once cold and once warm and traced
// at each probe size, then times the levels kernel alone.
func ledgerScale(res *result, tr *tracer, cfg config, seed int64) error {
	for k, v := range cfg.ledgerScaleV {
		suffix := []string{".v1e5", ".v1e6"}[k]
		runtime.GC() // free the previous probe's arena before this one grows
		text, edges, err := edgeList(v, seed+ledgerScaleSeed)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		rig := newScaleRig(text, seed, nil)
		if err := rig.run(nil, -1); err != nil {
			return err
		}
		rig.hier.Instrument(reg, nil)
		first := len(tr.spans)
		err = rig.run(tr, int64(k))
		res.attempted++
		if err != nil {
			res.failed++
			res.fact("scale probe %s: %v", suffix, err)
			continue
		}
		perEdge := func(name string) float64 {
			for _, s := range tr.spans[first:] {
				if s.name == name {
					return float64(s.end-s.start) / float64(edges)
				}
			}
			return math.NaN()
		}
		res.add("dag.parse_ns_per_edge"+suffix, perEdge("dag.parse"), "ns/edge", 1)
		res.add("fast.hier_ns_per_edge"+suffix, perEdge("fast.hier"), "ns/edge", 1)
		res.add("sched.validate_flat_ns_per_edge"+suffix, perEdge("sched.validate_flat"), "ns/edge", 1)
		var lv dag.CompactLevels
		t0 := time.Now()
		_, err = rig.csr.ComputeLevelsCompactArena(&lv, rig.arena)
		if err != nil {
			return err
		}
		res.add("dag.levels_ns_per_edge"+suffix, float64(time.Since(t0))/float64(edges), "ns/edge", 1)
		if k == 1 {
			res.add("dag.arena_b_per_node", float64(rig.arena.Footprint())/float64(v), "B/node", 1)
			res.add("hier.contracted_nodes", float64(reg.Counter("hier.contracted.nodes").Value()), "count", 1)
			res.add("hier.contracted_edges", float64(reg.Counter("hier.contracted.edges").Value()), "count", 1)
		}
		res.fact("scale probe %s: v %d, e %d", suffix, v, edges)
	}
	return nil
}

// ledgerOnline runs one online-crash stream with the engine's counters,
// and compiles the stream's graphs once more by direct calls.
func ledgerOnline(res *result, _ *tracer, cfg config, seed int64) error {
	streams, err := genStreams(cfg, seed+ledgerOnlineSeed, 1)
	if err != nil {
		return err
	}
	s := streams[0]
	reg := obs.NewRegistry()
	rep, err := s.run(reg)
	res.attempted++
	if err == nil {
		err = s.check(rep)
	}
	if err != nil {
		res.failed++
		res.fact("online probe: %v", err)
		return nil
	}
	for _, name := range []string{"online.tasks_dispatched", "online.tasks_aborted", "online.replans", "online.solo_plans"} {
		res.add(name, float64(reg.Counter(name).Value()), "count", 1)
	}
	res.add("online.miss_ratio", float64(rep.Missed)/float64(rep.Jobs), "ratio", rep.Jobs)
	res.add("online.tardiness_mean", rep.TotalTard/float64(rep.Jobs), "sim_time", rep.Jobs)
	var compile time.Duration
	for _, j := range s.jobs {
		t0 := time.Now()
		if _, err := plan.Compile(j.Graph); err != nil {
			return err
		}
		compile += time.Since(t0)
	}
	res.add("plan.compile_ms_total", ms(compile), "ms", len(s.jobs))
	return nil
}

// ledgerResched crashes the busiest processor of a FAST schedule at half
// its makespan in the simulator, repairs the run with resched.Repair,
// and times a full FAST replan on the survivors for comparison.
func ledgerResched(res *result, tr *tracer, cfg config, seed int64) error {
	graphs, _, err := drawMix(cfg.onlineMix, cfg.reschedSamples, seed+ledgerReschedSeed)
	if err != nil {
		return err
	}
	const procs = 8
	for i, g := range graphs {
		s, err := fast.New(fast.Options{Seed: 1}).Schedule(g, procs)
		if err != nil {
			return err
		}
		busiest := s.Procs()[0]
		for _, p := range s.Procs() {
			if len(s.OnProc(p)) > len(s.OnProc(busiest)) {
				busiest = p
			}
		}
		cfgSim := sim.Config{Faults: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: busiest, Time: s.Length() / 2}}}}
		root := tr.begin("resched.case", -1, int64(i))
		sp := tr.begin("sim.run", root, int64(i))
		_, err = sim.Run(g, s, cfgSim)
		tr.end(sp)
		var crash *sim.CrashError
		if !errors.As(err, &crash) {
			tr.end(root) // the crash came after the processor's last task
			continue
		}
		sp = tr.begin("resched.repair", root, int64(i))
		fixed, err := resched.Repair(g, s, crash, resched.Options{Seed: 1})
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("fast.replan", root, int64(i))
		full, err := fast.New(fast.Options{Seed: 1}).Schedule(g, len(fixed.Survivors))
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		res.attempted++
		if err := errors.Join(sched.ValidateDurations(g, fixed.Schedule, fixed.Durations), sched.Validate(g, full)); err != nil {
			res.failed++
			res.fact("repair case %d: %v", i, err)
		}
	}
	d := tr.durations()
	n := len(d["resched.repair"])
	r, p := median(msAll(d["resched.repair"])), median(msAll(d["fast.replan"]))
	res.add("resched.repair_ms_p50", r, "ms", n)
	res.add("resched.replan_ms_p50", p, "ms", n)
	res.add("resched.repair_over_replan", r/p, "ratio", n)
	return nil
}
