package online

import (
	"errors"
	"strconv"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// typedErrors is the complete set of errors Run may return on
// malformed submissions; the fuzzer rejects anything outside it.
var typedErrors = []error{
	ErrBadProcs, ErrBadPolicy, ErrBadAlgorithm,
	ErrNilGraph, ErrEmptyGraph, ErrBadGraph, ErrBadJobID, ErrDuplicateID,
	ErrBadArrival, ErrBadDeadline, ErrBadWeight,
	ErrFaultUnsupported, ErrAllProcessorsDead,
}

// fuzzJobs decodes a byte stream into a small workload, deliberately
// spanning the malformed corner of the input space: negative
// deadlines, deadlines before arrivals, zero-width (empty) jobs,
// duplicate IDs, negative weights, tiny machines.
func fuzzJobs(data []byte) ([]Job, Options) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	small := func(b byte) float64 { return float64(int(b%64) - 8) } // may be negative

	policies := []string{"fifo", "edf", "fast", "", "lifo"}
	algos := []string{"fast", "none", "", "bogus"}
	opts := Options{
		Procs:     int(next() % 4), // 0..3: includes the zero-proc bad machine
		Policy:    policies[int(next())%len(policies)],
		Algorithm: algos[int(next())%len(algos)],
		Seed:      int64(next()),
	}
	njobs := 1 + int(next())%4
	jobs := make([]Job, 0, njobs)
	for j := 0; j < njobs; j++ {
		id := "j" + strconv.Itoa(int(next())%3) // collisions on purpose
		if next()%16 == 0 {
			id = "" // empty ID
		}
		var g *dag.Graph
		if next()%8 != 0 { // else nil graph
			n := int(next()) % 6 // 0 → empty graph
			g = dag.New(0)
			for i := 0; i < n; i++ {
				g.AddNode("", small(next())) // negative weights possible
			}
			for i := 1; i < n; i++ {
				if next()%2 == 0 {
					g.AddEdge(dag.NodeID(i-1), dag.NodeID(i), float64(next()%5))
				}
			}
		}
		jobs = append(jobs, Job{
			ID:       id,
			Tenant:   "t" + strconv.Itoa(j%2),
			Weight:   small(next()),
			Graph:    g,
			Arrival:  small(next()),
			Deadline: small(next()),
		})
	}
	return jobs, opts
}

// FuzzOnlineSubmit feeds arbitrary byte-derived workloads to Run:
// every rejection must be one of the package's typed errors, and every
// accepted workload must complete deterministically with legal
// realized schedules.
func FuzzOnlineSubmit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 1, 5, 4, 9, 20, 40, 7, 7, 7, 7})
	f.Add([]byte{1, 1, 1, 2, 16, 0, 0, 0, 0})         // empty-ID / empty-graph corner
	f.Add([]byte{2, 4, 3, 2, 1, 1, 3, 200, 200, 200}) // negative arrivals/deadlines
	f.Add([]byte{0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}) // zero-proc machine
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, opts := fuzzJobs(data)
		rep, err := Run(jobs, opts)
		if err != nil {
			for _, want := range typedErrors {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		if len(rep.Results) != len(jobs) {
			t.Fatalf("submitted %d jobs, traced %d", len(jobs), len(rep.Results))
		}
		for i, r := range rep.Results {
			if !r.Completed {
				t.Fatalf("job %d dropped without error", i)
			}
			if err := sched.Validate(jobs[i].Graph, r.Schedule); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	})
}
