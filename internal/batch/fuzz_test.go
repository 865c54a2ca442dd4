package batch

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/schedtest"
)

// graphJSON serializes g for the fuzz corpus.
func graphJSON(g *dag.Graph) []byte {
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf, g, "fuzz"); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzBatchSubmit throws hostile inputs at the engine: malformed graph
// bytes, cancelled contexts, negative deadlines and budgets, unknown
// algorithms. The engine must always answer with a typed error or a
// valid schedule — never panic — and must drain its workers on Close
// (a leak deadlocks the engine's Close and times the target out).
func FuzzBatchSubmit(f *testing.F) {
	f.Add(graphJSON(schedtest.Chain(4, 1)), int64(1), 2, int64(0), false, uint8(0))
	f.Add(graphJSON(schedtest.ForkJoin(3, 2)), int64(7), 0, int64(time.Millisecond), true, uint8(1))
	f.Add([]byte("{not json"), int64(0), 1, int64(-1), false, uint8(2))
	f.Add([]byte(`{"nodes":[{"id":0,"weight":-5}],"edges":[]}`), int64(3), 4, int64(0), false, uint8(0))
	f.Add([]byte(`{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":0,"weight":1}]}`),
		int64(2), 3, int64(12345), true, uint8(3))

	algos := []string{"fast", "etf", "", "definitely-not-an-algorithm"}

	f.Fuzz(func(t *testing.T, graphBytes []byte, seed int64, procs int, deadlineNS int64, cancelled bool, algoPick uint8) {
		e := New(Options{Workers: 2, QueueDepth: 2})
		defer e.Close()

		req := Request{
			ID:        "fuzz",
			Procs:     procs,
			Seed:      seed,
			Algorithm: algos[int(algoPick)%len(algos)],
			Deadline:  time.Duration(deadlineNS),
		}
		g, _, gerr := dag.ReadJSON(bytes.NewReader(graphBytes))
		if gerr == nil {
			req.Graph = g
		}

		ctx := context.Background()
		if cancelled {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}

		res := e.Do(ctx, req)
		if res.Err == nil {
			if res.Schedule == nil {
				t.Fatal("no error and no schedule")
			}
			return
		}
		// Every failure must be one of the engine's typed errors or a
		// context error; anything else is an escape from the contract.
		typed := []error{
			ErrNilGraph, ErrEmptyGraph, ErrBadDeadline, ErrBadBudget,
			ErrBadProcs, ErrBadAlgorithm, ErrBadGraph, ErrClosed, ErrQueueFull,
			context.Canceled, context.DeadlineExceeded,
		}
		for _, want := range typed {
			if errors.Is(res.Err, want) {
				// Spot-check the headline contracts. Validation order:
				// graph presence is checked before the deadline, so the
				// deadline guarantee only binds on a present, non-empty
				// graph.
				if req.Graph == nil && !errors.Is(res.Err, ErrNilGraph) {
					t.Fatalf("nil graph produced %v, want ErrNilGraph", res.Err)
				}
				if req.Deadline < 0 && req.Graph != nil && req.Graph.NumNodes() > 0 &&
					!errors.Is(res.Err, ErrBadDeadline) {
					t.Fatalf("negative deadline produced %v, want ErrBadDeadline", res.Err)
				}
				return
			}
		}
		t.Fatalf("untyped error escaped the engine: %v", res.Err)
	})
}
