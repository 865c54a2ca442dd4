package dag

import (
	"math"
	"slices"
)

// radixCutoff is the length from which SortByKey radix-sorts. The
// radix branch pays a fixed cost — a 48 KB histogram and a prefix sum
// per pass — that a short list does not repay, and a comparison sort
// runs in linear time on a list already in order. On the inputs the
// scheduler sorts — levels over a topological order, starts over a
// processor's nodes in ID order — the radix branch is already faster
// from a few hundred entries (BenchmarkSortByKey). 1024 is the
// smallest power of two above the 600 nodes of the largest graph the
// serve and online workloads schedule, so their lists and processor
// groups keep the comparison sort.
const radixCutoff = 1024

// SortByKey sorts idx in place by key[idx[i]], ascending or, with desc,
// descending; tied entries keep their order in idx. −0 and +0 tie, as
// they do under <; a NaN key has no defined place. buf is scratch of
// at least len(idx) entries.
//
// From radixCutoff entries up it is an LSD radix sort over the keys'
// order-preserving bits in 11-bit digits: one histogram pass for all
// six digits, then one stable scatter pass for each digit that not
// every key shares, each reading the key through the index, so it
// needs no memory beyond idx and buf. Below the cutoff it is a
// comparison stable sort. The result is the same either way.
func SortByKey(idx []int32, key []float64, desc bool, buf []int32) {
	if len(idx) < radixCutoff {
		stableSortByKey(idx, key, desc)
		return
	}
	radixSortByKey(idx, key, desc, buf)
}

// stableSortByKey is SortByKey's comparison branch.
func stableSortByKey(idx []int32, key []float64, desc bool) {
	if desc {
		slices.SortStableFunc(idx, func(a, b int32) int { return compareKeys(key[b], key[a]) })
		return
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return compareKeys(key[a], key[b]) })
}

// compareKeys orders x and y by < alone: no NaN ordering, and −0 ties +0.
func compareKeys(x, y float64) int {
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return 0
}

// radixSortByKey is SortByKey's radix branch. Its digits are 11 bits
// wide, not 8: the scale path's integer-valued levels and starts vary
// in three of them where they vary in four bytes, and each pass saved
// is a read of every key in an order that scatters its memory accesses.
func radixSortByKey(idx []int32, key []float64, desc bool, buf []int32) {
	var flip uint64 // complementing every key reverses the order, ties kept
	if desc {
		flip = math.MaxUint64
	}
	var count [6][2048]uint32
	for _, n := range idx {
		u := orderedBits(key[n]) ^ flip
		count[0][u&2047]++
		count[1][u>>11&2047]++
		count[2][u>>22&2047]++
		count[3][u>>33&2047]++
		count[4][u>>44&2047]++
		count[5][u>>55]++
	}
	first := orderedBits(key[idx[0]]) ^ flip
	src, dst := idx, buf[:len(idx)]
	for b := range count {
		shift := 11 * b
		pos := &count[b]
		if int(pos[first>>shift&2047]) == len(idx) {
			continue // every key shares this digit
		}
		var sum uint32
		for d, c := range pos {
			pos[d], sum = sum, sum+c
		}
		for _, n := range src {
			d := (orderedBits(key[n]) ^ flip) >> shift & 2047
			dst[pos[d]] = n
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// orderedBits maps f to a word whose unsigned order is f's order under
// <, with −0 and +0 mapped to one word: the sign bit is set on a
// non-negative float and every bit is flipped on a negative one.
func orderedBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u == 1<<63 {
		u = 0
	}
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}
