package fast

import (
	"testing"

	"fastsched/internal/obs"
	"fastsched/internal/schedtest"
)

// TestConformance runs the shared scheduler invariant suite over the
// main configurations of the FAST family. Every variant — list orders,
// insertion, PFAST and multi-start — must uphold the same validity,
// determinism and bound invariants.
func TestConformance(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 1}},
		{"initial", Options{MaxSteps: -1}},
		{"insertion", Options{Insertion: true, MaxSteps: -1}},
		{"blevel", Options{Seed: 1, Order: BLevelOrder}},
		{"static-level", Options{Seed: 1, Order: StaticLevelOrder}},
		{"pfast", Options{Seed: 1, Parallelism: 4}},
		{"multistart", Options{Seed: 1, Parallelism: 3, MultiStart: true}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			schedtest.Conformance(t, New(c.opts), true)
		})
	}
}

// TestConformanceInstrumented re-runs the suite with telemetry attached
// to the default configuration: instrumentation must never change
// scheduling decisions.
func TestConformanceInstrumented(t *testing.T) {
	s := New(Options{Seed: 1})
	s.Instrument(obs.NewRegistry(), obs.NewTrajectory(0))
	schedtest.Conformance(t, s, true)
}
