package fast

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
	"fastsched/internal/workload"
)

// layeredEdgeList streams a layered DAG through the textual edge-list
// format without ever materializing it: a generator goroutine writes
// into a pipe that the caller hands to dag.StreamEdgeList. This is the
// exact shape of the million-node serving path — file-sized input,
// O(v) working memory end to end. The emitter is the allocation-free
// workload.WriteLayeredEdgeList, so the generator side does not pollute
// the pipeline's allocation accounting.
func layeredEdgeList(opts workload.LayeredOpts) io.ReadCloser {
	pr, pw := io.Pipe()
	go func() {
		_, _, err := workload.WriteLayeredEdgeList(pw, opts)
		pw.CloseWithError(err)
	}()
	return pr
}

func scaleV() int {
	if s := os.Getenv("FASTSCHED_SCALE_V"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 1 {
			return n
		}
	}
	return 20000
}

// TestScaleSmoke drives the full large-graph pipeline — streaming
// generator → edge-list parse → CSR → hierarchical FAST → flat
// validation — at FASTSCHED_SCALE_V nodes (default 20k, 5k under
// -short). ci.sh runs this at 10⁵ under the race detector. Beyond
// validity and the envelope bound, the schedule's load bound is
// asserted here so the CI smoke also gates one PE dominating.
func TestScaleSmoke(t *testing.T) {
	v := scaleV()
	if testing.Short() {
		v = 5000
	}
	r := layeredEdgeList(workload.LayeredOpts{V: v, Seed: 29})
	defer r.Close()
	c, err := dag.StreamEdgeList(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != v {
		t.Fatalf("streamed %d nodes, want %d", c.NumNodes(), v)
	}
	h := NewHierarchical(HierOptions{Seed: 1})
	f, err := h.ScheduleCSR(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFlat(c, f); err != nil {
		t.Fatal(err)
	}
	if env := c.TotalWork() + c.TotalComm(); f.Length() > env {
		t.Fatalf("makespan %v exceeds envelope %v", f.Length(), env)
	}
	if bal := f.Balance(); bal > 1.5 {
		t.Fatalf("PE busy-time balance %.3f exceeds 1.5 (one-PE-dominates)", bal)
	}
}

// spliceShapes are TestSpliceBalanceLayered's layered graphs, which
// TestHierMatchesReferencePlacement reuses.
var spliceShapes = []workload.LayeredOpts{
	{V: 2000, Seed: 3},
	{V: 2000, Seed: 11, Width: 32},
	{V: 3000, Seed: 5, Width: 128},
	{V: 4000, Seed: 23, Width: 96},
	{V: 5000, Seed: 7},
}

// TestSpliceBalanceLayered is the load-balance property test: on
// layered graphs across widths and seeds, the placement pass keeps the
// max/mean PE busy-time at or under 1.5 for every processor count in
// {4, 8, 16}. Widths stay at 2x the largest processor count or more: a
// graph whose layers are narrower than the machine cannot keep every PE
// busy, and idle PEs count toward the mean.
func TestSpliceBalanceLayered(t *testing.T) {
	for _, opts := range spliceShapes {
		c, err := workload.LayeredCSR(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 8, 16} {
			h := NewHierarchical(HierOptions{Seed: 1})
			f, err := h.ScheduleCSR(c, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.ValidateFlat(c, f); err != nil {
				t.Fatal(err)
			}
			if bal := f.Balance(); bal > 1.5 {
				t.Errorf("v=%d seed=%d width=%d procs=%d: balance %.3f > 1.5",
					opts.V, opts.Seed, opts.Width, p, bal)
			}
		}
	}
}

// TestSpliceGOMAXPROCSBitIdentical pins the placement pass's
// determinism contract: the schedule is a pure sequential replay, so
// its output is bit-identical no matter how many OS threads the
// runtime is allowed to use.
func TestSpliceGOMAXPROCSBitIdentical(t *testing.T) {
	c, err := workload.LayeredCSR(workload.LayeredOpts{V: 3000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want *sched.Flat
	for _, gmp := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(gmp)
		h := NewHierarchical(HierOptions{Seed: 1})
		f, err := h.ScheduleCSR(c, 8)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		if want == nil {
			want = f
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			if got, exp := f.Of(dag.NodeID(n)), want.Of(dag.NodeID(n)); got != exp {
				t.Fatalf("GOMAXPROCS=%d: schedule diverges at node %d: %+v vs %+v", gmp, n, got, exp)
			}
		}
	}
}

// TestScaleArenaWarmZeroAllocs pins the warm-path contract: once the
// arena is warmed by one cold pass, re-running the arena kernels —
// streaming parse, compact levels, static levels, classification,
// priority order — allocates nothing at all, and the whole arena-backed
// scheduler allocates exactly one object per run, the schedule header
// sched.FromArrays returns.
func TestScaleArenaWarmZeroAllocs(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless")
	}
	var buf bytes.Buffer
	if _, _, err := workload.WriteLayeredEdgeList(&buf, workload.LayeredOpts{V: 5000, Seed: 29}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	a := dag.NewScaleArena()
	rd := bytes.NewReader(data)
	var lvl dag.CompactLevels
	var runErr error
	run := func() {
		rd.Reset(data)
		a.Reset()
		c, err := dag.StreamEdgeListArena(rd, a)
		if err != nil {
			runErr = err
			return
		}
		l, err := c.ComputeLevelsCompactArena(&lvl, a)
		if err != nil {
			runErr = err
			return
		}
		static := c.StaticLevels(l, a)
		cls := c.ClassifyCompactArena(l, a)
		prio := dag.PriorityOrder(l.BLevel, l.Order, a)
		if len(static) == 0 || len(cls) == 0 || len(prio) == 0 {
			runErr = fmt.Errorf("degenerate pipeline output")
		}
	}
	// AllocsPerRun runs f once as warm-up (our cold pass), then measures.
	if n := testing.AllocsPerRun(10, run); runErr != nil {
		t.Fatal(runErr)
	} else if n != 0 {
		t.Fatalf("warm arena kernels allocate %v times per run, want 0", n)
	}

	// The whole scheduler on a CSR that outlives the arena's resets.
	c, err := dag.StreamEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchical(HierOptions{Arena: a})
	schedule := func() {
		a.Reset()
		if _, err := h.ScheduleCSR(c, 8); err != nil {
			runErr = err
		}
	}
	if n := testing.AllocsPerRun(10, schedule); runErr != nil {
		t.Fatal(runErr)
	} else if n != 1 {
		t.Fatalf("warm arena-backed ScheduleCSR allocates %v times per run, want 1 (the schedule header)", n)
	}
}

// heapAfterGC returns the live heap after a forced collection — the
// stage-boundary footprint, insensitive to garbage in flight.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchSink keeps the timed loop's schedule observable so the compiler
// cannot elide it.
var benchSink float64

// scaleStat caches the untimed per-size measurements across the bench
// harness's repeated invocations of the same sub-benchmark (b.N probing
// re-enters the function; the single-shot pipelines at v = 10⁶ are far
// too expensive to repeat).
type scaleStat struct {
	peakB      float64
	balance    float64
	coldAllocs float64
}

var scaleStats = map[int]*scaleStat{}

// BenchmarkScale is the gate's scale benchmark: layered DAGs at
// v = 10⁴, 10⁵, 10⁶ through the streaming ingest + hierarchical FAST
// pipeline. Three measurement modes per size:
//
//   - an untimed nil-arena single shot reports peak-B/node (live heap
//     at stage boundaries) plus the schedule's busy-time balance;
//   - an untimed fresh-arena pass reports cold-allocs/node (Mallocs
//     delta over the whole pipeline, generator included);
//   - the timed loop runs the warm serving path — arena Reset, parse,
//     schedule — after a warm-up pass and a forced GC, reporting ns/op,
//     allocs/op and warm-allocs/node.
//
// bench.sh records all series into BENCH_scale.json (best-of-N for
// time); bench_check.sh gates regressions and the absolute bounds.
func BenchmarkScale(b *testing.B) {
	for _, v := range []int{10000, 100000, 1000000} {
		// "v=" not "v-": the bench scripts strip a trailing "-N"
		// GOMAXPROCS suffix from benchmark names, which would eat a
		// hyphenated size on single-core hosts (where Go omits the
		// suffix entirely).
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			opts := workload.LayeredOpts{V: v, Seed: 29}
			st := scaleStats[v]
			if st == nil {
				st = measureScaleOnce(b, opts)
				scaleStats[v] = st
			}

			// Warm serving path: fresh arena, one untimed cold pass to
			// warm it, then the timed loop re-runs the same-shaped graph
			// allocation-flat.
			arena := dag.NewScaleArena()
			h := NewHierarchical(HierOptions{Seed: 1, Arena: arena})
			runOnce := func() float64 {
				arena.Reset()
				r := layeredEdgeList(opts)
				defer r.Close()
				c, err := dag.StreamEdgeListArena(r, arena)
				if err != nil {
					b.Fatal(err)
				}
				f, err := h.ScheduleCSR(c, 8)
				if err != nil {
					b.Fatal(err)
				}
				return f.Length()
			}
			runOnce()
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = runOnce()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			warmAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / float64(v)

			b.ReportMetric(st.peakB, "peak-B/node")
			b.ReportMetric(st.balance, "balance")
			b.ReportMetric(st.coldAllocs, "cold-allocs/node")
			b.ReportMetric(warmAllocs, "warm-allocs/node")
		})
	}
}

// measureScaleOnce performs the untimed single-shot measurements for
// one graph size: the nil-arena pipeline's peak live heap and busy-time
// balance, then a fresh arena's cold allocation count.
func measureScaleOnce(b *testing.B, opts workload.LayeredOpts) *scaleStat {
	v := opts.V
	st := &scaleStat{}

	base := heapAfterGC()
	r := layeredEdgeList(opts)
	c, err := dag.StreamEdgeList(r)
	r.Close()
	if err != nil {
		b.Fatal(err)
	}
	afterLoad := heapAfterGC()
	f, err := NewHierarchical(HierOptions{Seed: 1}).ScheduleCSR(c, 8)
	if err != nil {
		b.Fatal(err)
	}
	afterSched := heapAfterGC()
	if err := sched.ValidateFlat(c, f); err != nil {
		b.Fatal(err)
	}
	hi := afterLoad
	if afterSched > hi {
		hi = afterSched
	}
	if hi > base {
		st.peakB = float64(hi-base) / float64(v)
	}
	st.balance = f.Balance()

	// Cold allocations: a fresh arena through the whole pipeline,
	// generator goroutine included (its emitter is allocation-free past
	// its two fixed buffers).
	arena := dag.NewScaleArena()
	h := NewHierarchical(HierOptions{Seed: 1, Arena: arena})
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cr := layeredEdgeList(opts)
	cc, err := dag.StreamEdgeListArena(cr, arena)
	cr.Close()
	if err != nil {
		b.Fatal(err)
	}
	cf, err := h.ScheduleCSR(cc, 8)
	if err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	st.coldAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(v)
	if cf.Length() <= 0 {
		b.Fatal("empty schedule from arena pipeline")
	}
	return st
}
