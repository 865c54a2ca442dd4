// Package pq is the repository's one priority queue: a typed binary
// min-heap. Unlike container/heap it never boxes an element into an
// interface.
//
// When Less is a strict total order, pops come out in exactly the order
// a full sort would give, whatever the push order and heap layout. When
// it is not, the order among ties depends on the layout, which this
// exact sift-up and sift-down fix: the discrete-event simulator's event
// order rests on it.
package pq

// Heap is a binary min-heap under Less. The zero value with Less set is
// an empty, usable heap.
type Heap[T any] struct {
	a    []T
	Less func(a, b T) bool
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.a) }

// Peek returns the minimum without removing it; the heap must be
// non-empty.
func (h *Heap[T]) Peek() T { return h.a[0] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.a = append(h.a, x)
	for i := len(h.a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.Less(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// Pop removes and returns the minimum; the heap must be non-empty.
func (h *Heap[T]) Pop() T {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	h.down(0)
	return top
}

// Filter keeps the elements keep accepts and restores the heap order in
// O(n).
func (h *Heap[T]) Filter(keep func(T) bool) {
	kept := h.a[:0]
	for _, x := range h.a {
		if keep(x) {
			kept = append(kept, x)
		}
	}
	h.a = kept
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.a)
	for {
		small := i
		if l := 2*i + 1; l < n && h.Less(h.a[l], h.a[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && h.Less(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}
