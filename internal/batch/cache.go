package batch

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"fastsched/internal/plan"
)

// resultKey is the content address of one scheduling request: a
// SHA-256 over the full scheduling input. Two requests with equal keys
// are guaranteed to describe the same scheduling problem, so their
// (deterministic) results are interchangeable.
type resultKey [32]byte

// requestKey derives the content-addressed cache key of a request.
// The graph — the expensive part of the input — is hashed exactly once
// per request via plan.GraphKey, the same digest that addresses the
// compilation cache; requestKeyFrom then folds in the scalar options
// with a second, cheap hash over 56 bytes plus the algorithm name.
//
// Labels are excluded: they never influence a schedule. The
// per-request deadline is excluded too — a request that finishes
// inside its deadline is bit-identical to an unbounded one, and
// partial (expired) results are never cached. plan.GraphKey hashes the
// adjacency in *stored* order, not canonicalized: the schedulers'
// tie-breaks (and FAST's random transfer sequence) depend on the order
// edges were inserted, so two graphs with the same edge set but
// different insertion orders can legally schedule differently.
func requestKey(req Request) resultKey {
	return requestKeyFrom(req, plan.GraphKey(req.Graph))
}

// keyBufPool recycles requestKeyFrom's serialization buffers so the
// warm lookup path allocates nothing.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// requestKeyFrom is requestKey with the graph digest already in hand
// ("hash once, use for both caches").
func requestKeyFrom(req Request, gk plan.Key) resultKey {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, req.Algorithm...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Seed))
	procs := req.Procs
	if procs <= 0 {
		procs = 0 // every non-positive count means "unbounded"
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(procs))
	buf = append(buf, gk[:]...)
	k := resultKey(sha256.Sum256(buf))
	*bp = buf
	keyBufPool.Put(bp)
	return k
}
