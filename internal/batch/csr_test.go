package batch

import (
	"bytes"
	"context"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/timing"
	"fastsched/internal/workload"
)

// TestDecodedRequestCompilesTheDecoderCSR: a request whose graph came
// out of the JSON decoder is flattened once. The plan the engine
// compiles for it holds the decoder's CSR, the pointer dag.BuildCSR
// returns for the graph.
func TestDecodedRequestCompilesTheDecoderCSR(t *testing.T) {
	built, err := workload.FFT(16, timing.ParagonLike())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf, built, ""); err != nil {
		t.Fatal(err)
	}
	g, _, err := dag.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e := New(Options{Workers: 1, Metrics: reg})
	defer e.Close()
	if res := e.Do(context.Background(), Request{Graph: g, Procs: 4, Seed: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	cg, err := e.plans.GetKeyed(g, plan.GraphKey(g))
	if err != nil {
		t.Fatal(err)
	}
	if misses := reg.Counter("plan.compile_misses").Value(); misses != 1 {
		t.Fatalf("compile_misses = %d, want 1", misses)
	}
	if cg.CSR != dag.BuildCSR(g) {
		t.Fatalf("the plan holds CSR %p, want its decoder's %p", cg.CSR, dag.BuildCSR(g))
	}
}
