package pq

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPopsInSortedOrder pushes, filters and pops random keys under a
// strict total order: Peek always shows the next pop, and the pops
// come out sorted.
func TestPopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 100 {
		h := Heap[int]{Less: func(a, b int) bool { return a < b }}
		var want []int
		for _, x := range rng.Perm(1 + rng.Intn(200)) {
			h.Push(x)
			want = append(want, x)
		}
		if trial%2 == 1 {
			odd := func(x int) bool { return x%2 == 1 }
			h.Filter(odd)
			want = slices.DeleteFunc(want, func(x int) bool { return !odd(x) })
		}
		slices.Sort(want)
		if h.Len() != len(want) {
			t.Fatalf("trial %d: %d elements, want %d", trial, h.Len(), len(want))
		}
		for i, w := range want {
			if p := h.Peek(); p != w {
				t.Fatalf("trial %d pop %d: peek %d, want %d", trial, i, p, w)
			}
			if got := h.Pop(); got != w {
				t.Fatalf("trial %d pop %d: %d, want %d", trial, i, got, w)
			}
		}
	}
}
