package listsched

import (
	"sync/atomic"

	"fastsched/internal/obs"
)

// Metrics is the telemetry of the list-scheduling machinery: how often
// insertion-based placement actually exploits an interior idle gap
// versus appending at the ready time, and the ready-list sizes the
// priority schedulers (ETF, DLS, HLFET) sweep per step.
type Metrics struct {
	InsertGapHits *obs.Counter
	InsertAppends *obs.Counter
	ReadyList     *obs.Histogram
}

// enabled holds the active metric set. The package hands out Timelines
// with no configuration hook, so the metrics are a package-level
// switch: an atomic pointer keeps EnableMetrics safe against concurrent
// schedulers, and a nil pointer (the default) makes every probe a
// single load-and-branch with zero allocations.
var enabled atomic.Pointer[Metrics]

// EnableMetrics routes the package's telemetry into sink; a nil sink
// disables it again. Counters already handed out keep aggregating into
// the previous sink, so enable before scheduling starts.
func EnableMetrics(sink obs.Sink) {
	if sink == nil {
		enabled.Store(nil)
		return
	}
	enabled.Store(&Metrics{
		InsertGapHits: sink.Counter("listsched.insert.gap_hits"),
		InsertAppends: sink.Counter("listsched.insert.appends"),
		ReadyList:     sink.Histogram("listsched.ready_list_len", obs.ExpBuckets(1, 2, 12)),
	})
}

// ObserveReadyList records the size of a scheduler's ready list at one
// selection step. No-op while metrics are disabled.
func ObserveReadyList(n int) {
	if m := enabled.Load(); m != nil {
		m.ReadyList.Observe(float64(n))
	}
}
