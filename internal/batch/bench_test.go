package batch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/workload"
)

// throughputRequests builds the 200-request serving workload of the
// throughput benchmarks: 40 distinct mid-size random DAGs × 5 seeds.
// 40 unique graphs means the compiled path's plan cache reaches steady
// state (40 entries, hit on every subsequent request) while the legacy
// path re-analyzes each graph on all 5 of its requests.
func throughputRequests(b *testing.B) []Request {
	b.Helper()
	reqs := make([]Request, 0, 200)
	for gi := 0; gi < 40; gi++ {
		g, err := workload.Random(workload.RandomOpts{V: 240, Seed: int64(1000 + gi), MeanInDegree: 3})
		if err != nil {
			b.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			reqs = append(reqs, Request{
				ID:        fmt.Sprintf("g%d/s%d", gi, seed),
				Graph:     g,
				Procs:     8,
				Algorithm: "fast",
				Seed:      seed,
			})
		}
	}
	return reqs
}

// runBatch pushes every request through the engine and waits for all
// results, exactly as a serving loop would.
func runBatch(b *testing.B, e *Engine, reqs []Request) {
	b.Helper()
	ctx := context.Background()
	chs := make([]<-chan Result, len(reqs))
	for i, r := range reqs {
		ch, err := e.Submit(ctx, r)
		if err != nil {
			b.Fatal(err)
		}
		chs[i] = ch
	}
	for i, ch := range chs {
		if res := <-ch; res.Err != nil {
			b.Fatalf("request %s: %v", reqs[i].ID, res.Err)
		}
	}
}

// BenchmarkBatchThroughput measures end-to-end engine throughput on
// the 200-request workload. The "compiled" variants use the
// compiled-plan serving path; "legacy" forces per-request graph
// re-analysis (the pre-compilation engine). The result cache is
// disabled in both so every request performs a real scheduling run —
// the quantity under test is scheduling throughput, not cache hits.
// scripts/bench.sh derives requests/second and the compiled/legacy
// speedup from these numbers into BENCH_throughput.json.
func BenchmarkBatchThroughput(b *testing.B) {
	reqs := throughputRequests(b)
	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []string{"compiled", "legacy"} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				opts := Options{Workers: workers, QueueDepth: len(reqs), CacheSize: -1}
				if mode == "legacy" {
					opts.PlanCacheSize = -1
				}
				e := New(opts)
				defer e.Close()
				runBatch(b, e, reqs) // warm: plan cache + scratch pools
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runBatch(b, e, reqs)
				}
			})
		}
	}
}

// BenchmarkDirIngest measures RunDir's pipelined directory loading on
// an on-disk corpus, against the engine's full serving path.
func BenchmarkDirIngest(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < 40; i++ {
		g, err := workload.Random(workload.RandomOpts{V: 60, Seed: int64(i), MeanInDegree: 3})
		if err != nil {
			b.Fatal(err)
		}
		writeGraphFile(b, dir, fmt.Sprintf("g%03d.json", i), g)
	}
	e := New(Options{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunDir(ctx, e, dir, Request{Algorithm: "fast", Procs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func writeGraphFile(tb testing.TB, dir, name string, g *dag.Graph) {
	tb.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		tb.Fatal(err)
	}
	if err := dag.WriteJSON(f, g, name); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}
