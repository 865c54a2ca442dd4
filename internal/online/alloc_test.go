package online

import (
	"math/rand"
	"strconv"
	"testing"

	"fastsched/internal/schedtest"
	"fastsched/internal/sim"
	"fastsched/internal/workload"
)

// allocStream is a fixed 200-job stream on 16 processors under edf with
// one crash. The arrival rate is set from the jobs' work plus
// communication for an offered load of 0.7, so jobs queue behind each
// other (dynamic dispatch), some arrive to an idle machine (solo
// delegation), and the crash mid-stream forces repairs.
func allocStream(t *testing.T) ([]Job, Options, int) {
	t.Helper()
	const n, procs = 200, 16
	rng := rand.New(rand.NewSource(14))
	jobs := make([]Job, n)
	demand, tasks := 0.0, 0
	for i := range jobs {
		g := schedtest.RandomLayered(rng, 20+rng.Intn(40))
		demand += g.TotalWork() + g.TotalComm()
		tasks += g.NumNodes()
		jobs[i] = Job{ID: "j" + strconv.Itoa(i), Tenant: "t" + strconv.Itoa(i%4), Graph: g}
	}
	arr, err := workload.Arrivals(workload.ArrivalOpts{N: n, Rate: 0.7 * procs * n / demand, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Arrival = arr[i]
		jobs[i].Deadline = arr[i] + 400
	}
	opts := Options{
		Procs:  procs,
		Policy: "edf",
		Seed:   14,
		Faults: &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 5, Time: arr[n/2]}}},
	}
	return jobs, opts, tasks
}

// TestRunAllocsPerTask bounds online.Run's allocations per task:
// admission, the event and ready heaps, solo delegation, crash repair
// and the report together stay under three.
func TestRunAllocsPerTask(t *testing.T) {
	if schedtest.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless")
	}
	jobs, opts, tasks := allocStream(t)
	rep, err := Run(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SoloPlans == 0 || rep.Replans == 0 || rep.SoloPlans == len(jobs) {
		t.Fatalf("stream does not exercise every path: %d solo plans, %d replans of %d jobs",
			rep.SoloPlans, rep.Replans, len(jobs))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(jobs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / float64(tasks); perTask > 3 {
		t.Fatalf("Run allocates %.2f times per task (%.0f over %d tasks), want at most 3", perTask, allocs, tasks)
	} else {
		t.Logf("%.2f allocations per task (%d tasks)", perTask, tasks)
	}
}
