package sim

import (
	"math/rand"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/pq"
)

// eventQueue is the simulator's own event heap before it moved onto
// pq.Heap, kept as the oracle TestEventHeapMatchesOracle pins the pop
// order against: a time-ordered min-heap of events with typed push/pop
// (container/heap would box every event into an interface — one heap
// allocation per event, the dominant cost on large simulations). Ties
// resolve by kind, then node/proc, keeping runs deterministic.
type eventQueue struct{ ev []event }

func (q *eventQueue) Len() int { return len(q.ev) }

func (q *eventQueue) less(i, j int) bool {
	a, b := q.ev[i], q.ev[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.proc < b.proc
}

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[parent], q.ev[i] = q.ev[i], q.ev[parent]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev = q.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.ev) && q.less(l, small) {
			small = l
		}
		if r < len(q.ev) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q.ev[i], q.ev[small] = q.ev[small], q.ev[i]
		i = small
	}
	return top
}

// TestEventHeapMatchesOracle drives the old queue and pq.Heap under
// eventLess with one random stream of pushes and pops. Times, kinds,
// nodes and processors come from small ranges and arrivals differ only
// in their producer, so eventLess ties often; the two must still pop
// the same events in the same order.
func TestEventHeapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		old, h := &eventQueue{}, &pq.Heap[event]{Less: eventLess}
		for step := range 300 {
			if rng.Intn(3) > 0 || old.Len() == 0 {
				e := event{
					time: float64(rng.Intn(4)),
					kind: eventKind(rng.Intn(4)),
					node: dag.NodeID(rng.Intn(3)),
					proc: rng.Intn(2),
					from: dag.NodeID(rng.Intn(50)),
				}
				old.push(e)
				h.Push(e)
				continue
			}
			if got, want := h.Pop(), old.pop(); got != want {
				t.Fatalf("trial %d step %d: popped %+v, want %+v", trial, step, got, want)
			}
		}
		for old.Len() > 0 {
			if got, want := h.Pop(), old.pop(); got != want {
				t.Fatalf("trial %d drain: popped %+v, want %+v", trial, got, want)
			}
		}
	}
}
