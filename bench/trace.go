package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans
// of one request or run share req; parent indexes the enclosing span in
// the same tracer (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32
	req        int64
	engine     time.Duration // HTTP roots: the engine time the server reported
	cache      string        // HTTP roots: the server's cache label
}

// tracer records spans in memory. A tracer belongs to one goroutine;
// concurrent clients each own one and the writer concatenates them.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index. A nil tracer records
// nothing, so untraced runs share the traced code path.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// durations returns, per span name, the durations of the spans of that
// name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.name] = append(out[s.name], s.end-s.start)
	}
	return out
}

// minCoverage returns the smallest share of a root span's duration that
// its direct children cover, over the roots named root. Children of one
// root never overlap (they are sequential calls), so their durations
// add.
func (t *tracer) minCoverage(root string) float64 {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	minCov := 1.0
	for i, s := range t.spans {
		if s.name != root {
			continue
		}
		if c := float64(covered[i]) / float64(s.end-s.start); c < minCov {
			minCov = c
		}
	}
	return minCov
}

// spanJSON is one line of the trace file.
type spanJSON struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int64  `json:"req"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	EngineNs int64  `json:"engine_ns,omitempty"`
	Cache    string `json:"cache,omitempty"`
}

// writeTrace writes every tracer's spans as JSONL, renumbering span IDs
// so they are unique across tracers.
func writeTrace(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, t := range tracers {
		for i, s := range t.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if err := enc.Encode(spanJSON{
				ID: base + i, Parent: parent, Req: s.req, Name: s.name,
				StartNs: int64(s.start), EndNs: int64(s.end),
				EngineNs: int64(s.engine), Cache: s.cache,
			}); err != nil {
				f.Close()
				return err
			}
		}
		base += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
