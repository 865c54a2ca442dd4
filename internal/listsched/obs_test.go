package listsched

import (
	"testing"

	"fastsched/internal/obs"
)

// TestMetricsRouting proves EnableMetrics switches the package
// telemetry on and off: probes count while enabled and freeze once
// disabled.
func TestMetricsRouting(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	tl := &Timeline{}
	tl.Insert(0, 0, 2)
	tl.Insert(1, 10, 2)
	if got := tl.EarliestStart(2, 3); got != 2 {
		t.Fatalf("gap start = %v, want 2", got)
	}
	if got := tl.EarliestStart(0, 50); got != 12 {
		t.Fatalf("append start = %v, want 12", got)
	}

	ObserveReadyList(4)
	ObserveReadyList(2)

	checks := []struct {
		name string
		want int64
	}{
		{"listsched.insert.gap_hits", 1},
		{"listsched.insert.appends", 1},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := reg.Histogram("listsched.ready_list_len", nil).Count(); got != 2 {
		t.Errorf("ready_list_len count = %d, want 2", got)
	}

	// After disabling, the probes must stop counting.
	EnableMetrics(nil)
	tl.EarliestStart(2, 3)
	ObserveReadyList(9)
	if got := reg.Counter("listsched.insert.gap_hits").Value(); got != 1 {
		t.Errorf("gap_hits moved to %d after disable", got)
	}
	if got := reg.Histogram("listsched.ready_list_len", nil).Count(); got != 2 {
		t.Errorf("ready_list_len moved to %d after disable", got)
	}
}

// TestDisabledProbesAllocationFree asserts that the disabled metric
// path of the list-scheduling hot loops — slot search and ready-list
// sampling — is a single atomic load with zero allocations.
func TestDisabledProbesAllocationFree(t *testing.T) {
	EnableMetrics(nil)
	tl := &Timeline{}
	tl.Insert(0, 0, 2)
	tl.Insert(1, 10, 2)

	if avg := testing.AllocsPerRun(100, func() {
		tl.EarliestStart(2, 3)
		tl.EarliestStart(0, 50)
	}); avg != 0 {
		t.Errorf("EarliestStart with metrics disabled: %v allocs/run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ObserveReadyList(5)
	}); avg != 0 {
		t.Errorf("ObserveReadyList with metrics disabled: %v allocs/run, want 0", avg)
	}
}
