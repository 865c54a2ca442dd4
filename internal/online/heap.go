package online

// minHeap is a binary min-heap under less. It is typed, so unlike
// container/heap it never boxes an element into an interface. less must
// be a strict total order: then pops come out in exactly the order a
// full sort would give, whatever the push order and heap layout, which
// is what keeps the engine's output bit-identical.
type minHeap[T any] struct {
	a    []T
	less func(a, b T) bool
}

func (h *minHeap[T]) len() int { return len(h.a) }

// peek returns the minimum without removing it; the heap must be
// non-empty.
func (h *minHeap[T]) peek() T { return h.a[0] }

func (h *minHeap[T]) push(x T) {
	h.a = append(h.a, x)
	for i := len(h.a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// pop removes and returns the minimum; the heap must be non-empty.
func (h *minHeap[T]) pop() T {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	h.down(0)
	return top
}

// filter keeps the elements keep accepts and restores the heap order
// in O(n).
func (h *minHeap[T]) filter(keep func(T) bool) {
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

func (h *minHeap[T]) down(i int) {
	n := len(h.a)
	for {
		small := i
		if l := 2*i + 1; l < n && h.less(h.a[l], h.a[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && h.less(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}
