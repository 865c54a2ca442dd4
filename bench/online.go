package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/online"
	"fastsched/internal/sched"
	"fastsched/internal/sim"
	"fastsched/internal/workload"
)

// The online-crash stream, after Lendve et al. (arXiv 2410.17563): DAG
// jobs from four tenants arrive as a Poisson process on identical
// processors, each with a deadline of three critical paths. Four
// processors crash at fixed shares of the arrival horizon. The arrival
// rate is computed from the jobs themselves for an offered load of 0.7,
// counting each job's demand as its work plus its communication. Work
// alone understates what the mix's CCR-10 jobs hold a machine for: at
// 0.7 of work the engine keeps only 30% of the machine busy, the last
// job finishes at 2.3 times the arrival horizon and 85% of deadlines
// are missed, so the queue grows for as long as the stream runs.
const (
	onlineProcs   = 16
	offeredLoad   = 0.7
	deadlineSlack = 3
	streamTenants = 4
)

var (
	crashProcs  = []int{3, 7, 11, 13}
	crashShares = []float64{0.2, 0.4, 0.6, 0.8}
)

// stream is one generated job stream.
type stream struct {
	jobs    []online.Job
	faults  *sim.FaultPlan
	seed    int64
	tasks   int
	lowerCP []float64 // each job's computation-only critical path
}

// genStreams draws one paper-mix job set from seed and returns count
// streams of it, each with its own Poisson arrivals, deadlines and crash
// times. The streams share the graphs, which online.Run only reads:
// averaging a run over several arrival processes steadies its cost from
// seed to seed without holding more graphs.
func genStreams(cfg config, seed int64, count int) ([]*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.onlineJobs
	graphs, _, err := drawMix(cfg.onlineMix, n, seed)
	if err != nil {
		return nil, err
	}
	demand, tasks := 0.0, 0
	cpLen := make([]float64, n)
	lowerCP := make([]float64, n)
	for i, g := range graphs {
		demand += g.TotalWork() + g.TotalComm()
		tasks += g.NumNodes()
		l, err := dag.ComputeLevels(g)
		if err != nil {
			return nil, err
		}
		cpLen[i] = l.CPLen
		for _, st := range l.Static {
			lowerCP[i] = math.Max(lowerCP[i], st)
		}
	}
	rate := offeredLoad * onlineProcs * float64(n) / demand
	out := make([]*stream, count)
	for k := range out {
		arrivals, err := workload.Arrivals(workload.ArrivalOpts{N: n, Rate: rate, Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		s := &stream{seed: rng.Int63(), faults: &sim.FaultPlan{}, tasks: tasks, lowerCP: lowerCP}
		for i, g := range graphs {
			s.jobs = append(s.jobs, online.Job{
				ID:       fmt.Sprintf("j%05d", i),
				Tenant:   fmt.Sprintf("t%d", i%streamTenants),
				Weight:   1,
				Graph:    g,
				Arrival:  arrivals[i],
				Deadline: arrivals[i] + deadlineSlack*cpLen[i],
			})
		}
		horizon := arrivals[n-1]
		for i, p := range crashProcs {
			s.faults.Crashes = append(s.faults.Crashes, sim.Crash{Proc: p, Time: crashShares[i] * horizon})
		}
		out[k] = s
	}
	return out, nil
}

func (s *stream) run(sink obs.Sink) (*online.Report, error) {
	return online.Run(s.jobs, online.Options{Procs: onlineProcs, Policy: "edf", Seed: s.seed, Faults: s.faults, Metrics: sink})
}

// check validates a stream's report: every job completed, each job's
// realized schedule is valid for its graph, no two tasks overlap on a
// processor, and no task runs on a processor past its crash.
func (s *stream) check(rep *online.Report) error {
	if rep.Completed != len(s.jobs) {
		return fmt.Errorf("%d of %d jobs completed", rep.Completed, len(s.jobs))
	}
	dead := map[int]float64{}
	for _, c := range s.faults.Crashes {
		dead[c.Proc] = c.Time
	}
	type slot struct{ start, finish float64 }
	byProc := map[int][]slot{}
	for i, r := range rep.Results {
		g := s.jobs[i].Graph
		if err := sched.Validate(g, r.Schedule); err != nil {
			return fmt.Errorf("job %s: %w", r.ID, err)
		}
		for n := 0; n < g.NumNodes(); n++ {
			pl := r.Schedule.Of(dag.NodeID(n))
			if pl.Start < s.jobs[i].Arrival-1e-9 {
				return fmt.Errorf("job %s: task %d starts before its arrival", r.ID, n)
			}
			if t, ok := dead[pl.Proc]; ok && pl.Finish > t+1e-9 {
				return fmt.Errorf("job %s: task %d finishes on crashed processor %d", r.ID, n, pl.Proc)
			}
			byProc[pl.Proc] = append(byProc[pl.Proc], slot{pl.Start, pl.Finish})
		}
	}
	for p, slots := range byProc {
		sort.Slice(slots, func(a, b int) bool { return slots[a].start < slots[b].start })
		for k := 1; k < len(slots); k++ {
			if slots[k].start < slots[k-1].finish-1e-9 {
				return fmt.Errorf("processor %d runs two tasks at once at %v", p, slots[k].start)
			}
		}
	}
	return nil
}

// stretches appends each job's response time over its computation-only
// critical path, the job's lower bound.
func (s *stream) stretches(rep *online.Report, out []float64) []float64 {
	for i, r := range rep.Results {
		out = append(out, r.Response/s.lowerCP[i])
	}
	return out
}

func runOnline(cfg config, seed int64) (*result, error) {
	res := &result{}
	streams, err := genStreams(cfg, seed, cfg.onlineStreams)
	if err != nil {
		return nil, err
	}
	res.fact("input: %d arrival streams of one %d-job set (%d tasks), %d procs, policy edf, %d tenants, load %.1f, crashes %v at %v of the horizon",
		len(streams), cfg.onlineJobs, streams[0].tasks, onlineProcs, streamTenants, offeredLoad, crashProcs, crashShares)

	base := liveHeap()
	// A set-up is one untimed run of the first stream.
	setups, err := timeSetups(cfg.setups, func() error {
		rep, err := streams[0].run(nil)
		if err == nil {
			err = streams[0].check(rep)
		}
		return err
	}, func() {})
	if err != nil {
		return nil, fmt.Errorf("warm-up stream: %w", err)
	}

	// The streams run in turn, each at least once; their reports give the
	// deterministic quality metric. A stream that runs again must
	// reproduce its report.
	reports := make([]*online.Report, len(streams))
	lr := closedLoop(1, cfg.window, len(streams), 0, 1, func(_, i int) error {
		k := i % len(streams)
		rep, err := streams[k].run(nil)
		if err != nil {
			return err
		}
		if prev := reports[k]; prev != nil {
			if prev.Makespan != rep.Makespan || prev.TotalTard != rep.TotalTard || prev.Missed != rep.Missed {
				return errors.New("a repeated stream produced a different report")
			}
			return nil
		}
		reports[k] = rep
		return nil
	})
	var lats []float64
	tasks := 0
	for _, op := range lr.recs[0] {
		res.attempted++
		if op.err != nil {
			res.failed++
			continue
		}
		lats = append(lats, ms(op.lat))
		tasks += streams[op.i%len(streams)].tasks
	}
	var stretch []float64
	for k, rep := range reports {
		if rep == nil {
			continue
		}
		if err := streams[k].check(rep); err != nil {
			res.failed++
			res.fact("stream %d: %v", k, err)
		}
		stretch = streams[k].stretches(rep, stretch)
	}
	timingMetrics(res, setups, lr, lats, tasks)
	res.add("makespan_over_lb", geomean(stretch), "ratio", len(stretch))
	// The caller holds the first stream's report; heap_mb is what it
	// costs.
	kept := reports[0]
	res.add("heap_mb", heapMB(base), "MB", 1)
	res.fact("window: %d streams run; makespan_over_lb is the geometric-mean job response over its critical path in all %d streams",
		len(lats), len(streams))
	runtime.KeepAlive(streams)
	runtime.KeepAlive(kept)
	return res, nil
}

func overheadOnline(cfg config, seed int64) (pair, []*tracer, error) {
	streams, err := genStreams(cfg, seed, 1)
	if err != nil {
		return pair{}, nil, err
	}
	s := streams[0]
	if _, err := s.run(nil); err != nil {
		return pair{}, nil, err
	}
	p, tr, err := alternate(3, func(tr *tracer) error {
		sp := tr.begin("online.run", -1, 0)
		defer tr.end(sp)
		_, err := s.run(nil)
		return err
	})
	return p, []*tracer{tr}, err
}
