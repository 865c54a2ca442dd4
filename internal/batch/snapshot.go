package batch

import (
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// The warm-restart surface: a long-running server snapshots the
// engine's two content-addressed caches before it exits and restores
// them on the next start, so a restart serves known graphs from the
// result cache (bit-identical payloads, no scheduling run) and known
// graph compilations from the plan cache (no serving-time compile).
//
// The snapshot speaks in terms of the same SHA-256 content addresses
// the live caches use: a restored result entry is keyed by the exact
// digest the next identical request will derive, so correctness never
// depends on the snapshot being fresh — a stale or partial snapshot
// only costs cold runs, never wrong answers. File format, integrity
// checking and corruption quarantine live one layer up, in
// internal/server; this file only exports and reimports cache state.

// SnapshotPlacement is one node's slot in a snapshotted schedule,
// indexed implicitly by node ID.
type SnapshotPlacement struct {
	Proc   int     `json:"p"`
	Start  float64 `json:"s"`
	Finish float64 `json:"f"`
}

// SnapshotResult is one result-cache entry in exportable form.
type SnapshotResult struct {
	// Key is the request's content address (algorithm + seed + procs +
	// graph digest), exactly as the live cache computed it.
	Key [32]byte `json:"-"`
	// Algorithm is the schedule's producing algorithm, echoed in
	// results served from the restored entry.
	Algorithm string `json:"algorithm"`
	// Placements holds every node's slot, indexed by node ID.
	Placements []SnapshotPlacement `json:"placements"`
}

// SnapshotResults exports every result-cache entry, least recent first
// within each shard, so RestoreResults reproduces the LRU order.
// Entries whose schedule is not fully assigned (impossible for cached
// results, which all passed validation, but cheap to guard) are
// skipped. Safe to call concurrently with serving and after Close.
func (e *Engine) SnapshotResults() []SnapshotResult {
	if e.cache == nil {
		return nil
	}
	var out []SnapshotResult
	e.cache.Each(func(key [32]byte, s *sched.Schedule) {
		if sr, ok := exportSchedule(key, s); ok {
			out = append(out, sr)
		}
	})
	return out
}

func exportSchedule(key [32]byte, s *sched.Schedule) (SnapshotResult, bool) {
	v := s.NumNodes()
	sr := SnapshotResult{Key: key, Algorithm: s.Algorithm, Placements: make([]SnapshotPlacement, v)}
	for i := 0; i < v; i++ {
		n := dag.NodeID(i)
		if !s.Assigned(n) {
			return SnapshotResult{}, false
		}
		pl := s.Of(n)
		sr.Placements[i] = SnapshotPlacement{Proc: pl.Proc, Start: pl.Start, Finish: pl.Finish}
	}
	return sr, true
}

// RestoreResults reimports previously exported result-cache entries
// and returns how many were installed. Malformed entries (no
// placements, a processor outside [0, math.MaxInt32], non-finite or
// negative times, inverted slots) are skipped rather than trusted: the
// snapshot file's checksum catches torn files, but this guards against
// a snapshot written by a buggy or future version. No-op (returns 0) on
// a cache-disabled engine.
func (e *Engine) RestoreResults(entries []SnapshotResult) int {
	if e.cache == nil {
		return 0
	}
	restored := 0
	for _, sr := range entries {
		s, ok := importSchedule(sr)
		if !ok {
			continue
		}
		e.cache.Put(sr.Key, s)
		restored++
	}
	return restored
}

func importSchedule(sr SnapshotResult) (*sched.Schedule, bool) {
	if len(sr.Placements) == 0 {
		return nil, false
	}
	s := sched.New(len(sr.Placements))
	s.Algorithm = sr.Algorithm
	for i, pl := range sr.Placements {
		if pl.Proc < 0 || pl.Proc > math.MaxInt32 || !finiteSlot(pl.Start, pl.Finish) {
			return nil, false
		}
		s.Place(dag.NodeID(i), pl.Proc, pl.Start, pl.Finish)
	}
	return s, true
}

func finiteSlot(start, finish float64) bool {
	return !math.IsNaN(start) && !math.IsInf(start, 0) &&
		!math.IsNaN(finish) && !math.IsInf(finish, 0) &&
		start >= 0 && finish >= start
}

// SnapshotGraphs exports the graph of every cached compilation, rebuilt
// from its CSR (nil without a plan cache), least recent first within
// each shard, so WarmGraphs given these graphs reproduces the LRU order
// under the same content keys.
func (e *Engine) SnapshotGraphs() []*dag.Graph {
	return e.plans.Graphs()
}

// WarmGraphs recompiles the given graphs into the plan cache and
// returns how many compiled cleanly. Restore-time compilation runs
// before the server reports ready, so serving-path plan.compile_misses
// stay at zero for every snapshotted graph. Graphs that fail to
// compile (a corrupted snapshot entry) are skipped.
func (e *Engine) WarmGraphs(graphs []*dag.Graph) int {
	if e.plans == nil {
		return 0
	}
	warmed := 0
	for _, g := range graphs {
		if g == nil || g.NumNodes() == 0 {
			continue
		}
		if _, err := e.plans.Get(g); err == nil {
			warmed++
		}
	}
	return warmed
}
