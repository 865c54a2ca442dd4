package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// StepEvent is one local-search step of the FAST family: a candidate
// transfer of Node from processor From to processor To, the resulting
// candidate makespan, whether the move was kept, and how much of the
// schedule the incremental kernel actually replayed to evaluate it.
type StepEvent struct {
	// Step is the step index within the recording worker's search.
	Step int `json:"step"`
	// Worker identifies the PFAST/multi-start worker (0 for the serial
	// search).
	Worker int `json:"worker"`
	// Node is the transferred blocking node.
	Node int `json:"node"`
	// From and To are the source and candidate processors.
	From int `json:"from"`
	To   int `json:"to"`
	// Candidate is the evaluated makespan of the transferred schedule.
	// For a rejected move whose replay stopped once the move could no
	// longer be accepted, it is the length the replay reached, at least
	// Best - 1e-12 and at most the full makespan.
	Candidate float64 `json:"candidate"`
	// Best is the best makespan known to the worker after this step.
	Best float64 `json:"best"`
	// Accepted reports whether the move was kept.
	Accepted bool `json:"accepted"`
	// ReplayLen is the number of list positions the incremental
	// evaluation replayed (the whole list on a full replay).
	ReplayLen int `json:"replay_len"`
}

// DefaultTrajectoryCap bounds an unconfigured trajectory recording;
// 1<<16 steps cover a 1000-worker PFAST run at the paper's MAXSTEP=64.
const DefaultTrajectoryCap = 1 << 16

// Trajectory is a bounded in-memory recording of search steps, safe for
// concurrent recorders. A nil *Trajectory is a valid disabled recorder:
// Record is then an allocation-free no-op.
type Trajectory struct {
	mu      sync.Mutex
	cap     int
	events  []StepEvent
	dropped int
}

// NewTrajectory returns a recorder holding at most max events (max <= 0
// selects DefaultTrajectoryCap). Events beyond the cap are counted as
// dropped instead of growing memory without bound.
func NewTrajectory(max int) *Trajectory {
	if max <= 0 {
		max = DefaultTrajectoryCap
	}
	return &Trajectory{cap: max}
}

// Record appends one step event. No-op on a nil trajectory.
func (t *Trajectory) Record(e StepEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (t *Trajectory) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the cap discarded (0 on nil).
func (t *Trajectory) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the recorded events in record order.
func (t *Trajectory) Events() []StepEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StepEvent(nil), t.events...)
}

// WriteJSONL writes one JSON object per line per recorded event — the
// jq/pandas-friendly search-trajectory export.
func (t *Trajectory) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
