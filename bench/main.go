// Command bench is the repository benchmark. It drives the scheduling
// system from outside, through the public entry points of server, batch,
// plan, dag, fast, sched, online and resched, on one of four workloads:
//
//	serve-hot     schedd over loopback HTTP, a 32-request pool (result-cache hits)
//	serve-cold    schedd over loopback HTTP, 2048 distinct requests (every request misses)
//	scale-1m      a 10⁶-node edge list: stream parse, hierarchical FAST, flat validation
//	online-crash  online.Run streams with deadlines and four processor crashes
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// Every output is checked for correctness. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; with --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, with --trace 1 the per-layer ledger. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config sizes every workload. fullConfig is the benchmark; the tests
// run the same code at toyConfig.
type config struct {
	window      time.Duration // timed window of one run
	setups      int           // set-ups per serve and online run; setup_s is their median
	scaleSetups int           // set-ups per scale run, a cold 10⁶-node run each

	serveMix   mix
	hotPool    int // serve-hot: requests in the pool
	coldPool   int // serve-cold: distinct requests, at least 2x the result cache
	warmPool   int // serve-cold: disjoint warm-up requests
	quality    int // serve-*: paper-mix requests in the makespan_over_lb sample
	minServed  int // least requests in a serve window
	serveSlice int // requests per CPU-time slice of a serve window; divides both pools

	scaleV, scaleMinRuns int

	onlineMix     mix
	onlineJobs    int // jobs per stream
	onlineStreams int // streams of one job set, run in turn; all are in the quality sample

	overheadRequests int // requests in each half of a serve overhead pair

	ledgerWindow   time.Duration // each traced HTTP window
	ledgerCold     int           // distinct requests in the traced cold window
	ledgerScaleV   [2]int        // the ".v1e5" and ".v1e6" probe sizes
	replayN        int           // request bodies replayed by direct calls
	replayReps     int           // replays of each body
	reschedSamples int           // graphs in the crash-repair sample
}

func fullConfig(seconds int) config {
	return config{
		window:      time.Duration(seconds) * time.Second,
		setups:      5,
		scaleSetups: 3,
		serveMix:    mix{randMin: 50, randMax: 300, appMin: 100, appMax: 600},
		hotPool:     32,
		coldPool:    2048,
		warmPool:    64,
		quality:     256,
		minServed:   1000,
		serveSlice:  128,

		scaleV:       1_000_000,
		scaleMinRuns: 3,

		onlineMix:     mix{randMin: 20, randMax: 200, appMin: 20, appMax: 200},
		onlineJobs:    1000,
		onlineStreams: 8,

		overheadRequests: 200,

		ledgerWindow:   1500 * time.Millisecond,
		ledgerCold:     512,
		ledgerScaleV:   [2]int{100_000, 1_000_000},
		replayN:        64,
		replayReps:     3,
		reschedSamples: 32,
	}
}

func toyConfig() config {
	return config{
		window:      100 * time.Millisecond,
		setups:      2,
		scaleSetups: 2,
		serveMix:    mix{randMin: 10, randMax: 30, appMin: 14, appMax: 40},
		hotPool:     6,
		coldPool:    24,
		warmPool:    4,
		quality:     6,
		minServed:   12,
		serveSlice:  6,

		scaleV:       3000,
		scaleMinRuns: 2,

		onlineMix:     mix{randMin: 10, randMax: 30, appMin: 14, appMax: 40},
		onlineJobs:    40,
		onlineStreams: 2,

		overheadRequests: 4,

		ledgerWindow:   50 * time.Millisecond,
		ledgerCold:     16,
		ledgerScaleV:   [2]int{1000, 3000},
		replayN:        4,
		replayReps:     2,
		reschedSamples: 4,
	}
}

// metric is one reported number and the count of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
	facts             []string // input sizes, capacities, sample counts
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

// measureFunc runs one untraced measurement: the end-to-end metrics.
type measureFunc func(cfg config, seed int64) (*result, error)

// overheadFunc runs the workload's operation untraced and traced in
// turn on one warmed system (see alternate).
type overheadFunc func(cfg config, seed int64) (pair, []*tracer, error)

var workloads = map[string]struct {
	run      measureFunc
	overhead overheadFunc
}{
	"serve-hot":    {runServeHot, overheadServeHot},
	"serve-cold":   {runServeCold, overheadServeCold},
	"scale-1m":     {runScale, overheadScale},
	"online-crash": {runOnline, overheadOnline},
}

// opRec is one operation of a closed loop.
type opRec struct {
	i   int
	lat time.Duration
	err error
}

// loopRun is what a closed loop measured.
type loopRun struct {
	recs    [][]opRec // each client's operations
	elapsed time.Duration
	// cpuPerOp is the process CPU time per operation, in ms, of each
	// consecutive slice of completed operations, without the reference
	// kernel's; probes are the reference kernel's times (see speed.go).
	cpuPerOp, probes []float64
}

// closedLoop runs op on clients goroutines, each issuing its next
// operation only when the previous one returned. Operation indexes are
// handed out in order. It stops issuing once d has passed and at least
// minOps operations were issued, or after limit operations (limit > 0).
// With sliceOps > 0 a sampler runs the reference kernel throughout, and
// the process CPU clock is read at the start and after every sliceOps
// completed operations; a trailing partial slice is dropped.
func closedLoop(clients int, d time.Duration, minOps, limit, sliceOps int, op func(client, i int) error) loopRun {
	var next, done atomic.Int64
	var mu sync.Mutex
	recs := make([][]opRec, clients)
	var smp *sampler
	var marks []time.Duration // the workload's CPU time at each slice boundary
	mark := func() { marks = append(marks, cpuTime()-smp.spent()) }
	if sliceOps > 0 {
		smp = startSampler()
		mark()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (i >= minOps && time.Now().After(deadline)) {
					return
				}
				t0 := time.Now()
				err := op(c, i)
				recs[c] = append(recs[c], opRec{i: i, lat: time.Since(t0), err: err})
				if sliceOps > 0 && done.Add(1)%int64(sliceOps) == 0 {
					mu.Lock()
					mark()
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	lr := loopRun{recs: recs, elapsed: time.Since(start)}
	if smp != nil {
		lr.probes = smp.stop()
	}
	for k := 1; k < len(marks); k++ {
		lr.cpuPerOp = append(lr.cpuPerOp, ms(marks[k]-marks[k-1])/float64(sliceOps))
	}
	return lr
}

// parallel calls f(0), ..., f(n-1) on GOMAXPROCS goroutines and returns
// their errors joined. It prepares inputs and checks outputs, never
// inside a timed window.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pair is what an overhead pair measured.
type pair struct {
	ratio  float64 // median traced wall time over median untraced wall time
	wallMS float64 // median untraced wall time of one operation
}

// alternate runs op 2n times, untraced and traced in turn, and returns
// their median wall times with the tracer the traced calls recorded
// into.
func alternate(n int, op func(tr *tracer) error) (pair, *tracer, error) {
	tr := newTracer(time.Now())
	var plain, traced []float64
	for k := 0; k < 2*n; k++ {
		var t *tracer
		if k%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		if err := op(t); err != nil {
			return pair{}, nil, err
		}
		if d := float64(time.Since(t0)); t != nil {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	untraced := median(plain)
	return pair{median(traced) / untraced, untraced / float64(time.Millisecond)}, tr, nil
}

// setupRun is what timeSetups measured.
type setupRun struct {
	cpuS, wallS []float64 // each set-up's process CPU and wall time, in s
	probes      []float64 // the reference kernel's time after each set-up
}

// timeSetups runs setup n times, timing each and running the reference
// kernel after each. Every set-up but the last is torn down with
// teardown.
func timeSetups(n int, setup func() error, teardown func()) (setupRun, error) {
	var sr setupRun
	for k := 0; k < n; k++ {
		c0, t0 := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return sr, err
		}
		sr.cpuS = append(sr.cpuS, (cpuTime() - c0).Seconds())
		sr.wallS = append(sr.wallS, time.Since(t0).Seconds())
		sr.probes = append(sr.probes, refProbe())
		if k < n-1 {
			teardown()
		}
	}
	return sr, nil
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle also drops the sync.Pool victim caches
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// heapMB is the live heap growth since base, in MiB.
func heapMB(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / (1 << 20)
}

// timingMetrics adds the two timing metrics, each divided by the host's
// slowdown over the whole run (see speed.go): setup_s, the median CPU
// time of one set-up, and cpu_ms_per_op, the median over the window's
// slices of CPU time per operation. It prints the raw CPU and wall-clock
// figures, which depend on how busy the host is.
func timingMetrics(r *result, sr setupRun, lr loopRun, lats []float64, tasks int) {
	probes := append(append([]float64(nil), sr.probes...), lr.probes...)
	slow := hostSlowdown(probes)
	setupCPU, opCPU := median(sr.cpuS), median(lr.cpuPerOp)
	r.add("setup_s", setupCPU/slow, "s", len(sr.cpuS))
	r.add("cpu_ms_per_op", opCPU/slow, "ms", len(lr.cpuPerOp))
	r.fact("host slowdown %.4g: median reference kernel %.4g ms over %d runs, nominal %.4g ms", slow, slow*refNominalMS, len(probes), refNominalMS)
	r.fact("raw CPU: set-up %.4g s (median of %d), %.4g ms per operation (median of %d slices)", setupCPU, len(sr.cpuS), opCPU, len(lr.cpuPerOp))
	n := len(lats)
	r.fact("wall clock: set-up %.4g s; %d operations in %.3f s, latency p50 %.4g ms, p99 %.4g ms (%d beyond it), %.4g tasks/s",
		median(sr.wallS), n, lr.elapsed.Seconds(), quantile(lats, 0.5), quantile(lats, 0.99), n-int(math.Ceil(0.99*float64(n))), float64(tasks)/lr.elapsed.Seconds())
}

// cpuModel reads the processor model from /proc/cpuinfo; "unknown" when
// it is not available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the run facts and every metric by name, then the JSON
// result line.
func report(w io.Writer, r *result) error {
	for _, f := range r.facts {
		fmt.Fprintf(w, "# %s\n", f)
	}
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, m.value)
		}
		fmt.Fprintf(w, "%-40s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, scale-1m or online-crash")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "timed window of the run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "bench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := fullConfig(*seconds)

	var res *result
	var err error
	if *trace == 1 {
		var tracers []*tracer
		res, tracers, err = runLedger(*name, wl.overhead, cfg, *seed)
		if err == nil {
			path := *traceOut
			if path == "" {
				path = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", *name, *seed)
			}
			if err = writeTrace(path, tracers); err == nil {
				res.fact("spans written to %s", path)
			}
		}
	} else {
		res, err = wl.run(cfg, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	host := []string{
		fmt.Sprintf("host: %s, cpu %q, nproc %d, GOMAXPROCS %d", runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("run: workload %s, seed %d, window %ds, trace %d, clients <= %d", *name, *seed, *seconds, *trace, runtime.NumCPU()),
	}
	res.facts = append(host, res.facts...)
	if err := report(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", *name, res.failed, res.attempted)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
