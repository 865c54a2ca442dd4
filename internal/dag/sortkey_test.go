package dag

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortByKeyReference is SortByKey's oracle: sort.SliceStable on key
// alone under < and >, so ties keep their order in idx and −0 ties +0.
func sortByKeyReference(idx []int32, key []float64, desc bool) []int32 {
	out := slices.Clone(idx)
	sort.SliceStable(out, func(i, j int) bool {
		if desc {
			return key[out[i]] > key[out[j]]
		}
		return key[out[i]] < key[out[j]]
	})
	return out
}

// sortKeyShapes are the key families the oracle test draws from, each a
// function of the rng and the number of keys.
var sortKeyShapes = []struct {
	name string
	key  func(rng *rand.Rand, v int) []float64
}{
	{"specials", func(rng *rand.Rand, v int) []float64 {
		// ±0, subnormals, ±Inf, ±MaxFloat64 and their neighbours, so the
		// sign, exponent and mantissa bytes all vary.
		vals := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0x1p-1030, -0x1p-1030, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
			1, -1, 0.5, -0.5, 1e300, -1e-300, math.Nextafter(1, 2), math.Nextafter(-1, -2)}
		k := make([]float64, v)
		for i := range k {
			k[i] = vals[rng.Intn(len(vals))]
		}
		return k
	}},
	{"signed", func(rng *rand.Rand, v int) []float64 {
		k := make([]float64, v)
		for i := range k {
			k[i] = rng.NormFloat64() * 1e3
		}
		return k
	}},
	{"integers", func(rng *rand.Rand, v int) []float64 {
		// Integer-valued levels and starts: the low mantissa digits are all
		// zero, so the radix branch skips them.
		k := make([]float64, v)
		for i := range k {
			k[i] = float64(rng.Intn(1 << 20))
		}
		return k
	}},
	{"three values", func(rng *rand.Rand, v int) []float64 {
		k := make([]float64, v)
		for i := range k {
			k[i] = float64(rng.Intn(3))
		}
		return k
	}},
	{"ulp apart", func(rng *rand.Rand, v int) []float64 {
		// One value, and one key in 64 its next float up: the lowest digit
		// varies in a few keys only, and its pass must still run.
		k := make([]float64, v)
		for i := range k {
			k[i] = 1e6
			if rng.Intn(64) == 0 {
				k[i] = math.Nextafter(1e6, 2e6)
			}
		}
		return k
	}},
	{"one outlier", func(rng *rand.Rand, v int) []float64 {
		// Every key but one shares every digit.
		k := make([]float64, v)
		for i := range k {
			k[i] = 1e6
		}
		if v > 0 {
			k[rng.Intn(v)] = math.Nextafter(1e6, 2e6)
		}
		return k
	}},
	{"one value", func(rng *rand.Rand, v int) []float64 {
		k := make([]float64, v)
		for i := range k {
			k[i] = 7
		}
		return k
	}},
}

// TestSortByKeyMatchesSortReference holds SortByKey to sort.SliceStable
// on both sides of the radix cutoff and well above it, ascending and
// descending, on a permuted index with a spare entry of buf past its
// end, which the sort must leave alone.
func TestSortByKeyMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, v := range []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100000} {
		for _, shape := range sortKeyShapes {
			key := shape.key(rng, v)
			idx := make([]int32, v)
			for i, p := range rng.Perm(v) {
				idx[i] = int32(p)
			}
			for _, desc := range []bool{false, true} {
				want := sortByKeyReference(idx, key, desc)
				got := slices.Clone(idx)
				buf := make([]int32, v+1)
				buf[v] = -1
				SortByKey(got, key, desc, buf)
				if !slices.Equal(got, want) {
					t.Fatalf("v=%d %s desc=%v: order differs at %d", v, shape.name, desc, firstDiff(got, want))
				}
				if buf[v] != -1 {
					t.Fatalf("v=%d %s desc=%v: wrote past buf's needed length", v, shape.name, desc)
				}
			}
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

var sortSink []int32

// BenchmarkSortByKey times both of SortByKey's branches around the
// radix cutoff on two inputs: b-levels over a random DAG's topological
// order, PriorityOrder's input, and keys already in ascending order
// with ties, the comparison sort's best case.
func BenchmarkSortByKey(b *testing.B) {
	for _, v := range []int{16, 256, 1024, 4096, 65536} {
		l, err := ComputeLevels(randomGraph(b, v, 3))
		if err != nil {
			b.Fatal(err)
		}
		sorted := make([]float64, v)
		ids := make([]int32, v)
		for i := range ids {
			sorted[i], ids[i] = float64(i/3), int32(i)
		}
		inputs := []struct {
			name string
			key  []float64
			idx  []int32
			desc bool
		}{
			{"levels", l.BLevel, l.CompactLevels.Order, true},
			{"sorted", sorted, ids, false},
		}
		for _, in := range inputs {
			work, buf := make([]int32, v), make([]int32, v)
			for _, radix := range []bool{true, false} {
				name := fmt.Sprintf("%s/v=%d/stable", in.name, v)
				if radix {
					name = fmt.Sprintf("%s/v=%d/radix", in.name, v)
				}
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(work, in.idx)
						if radix {
							radixSortByKey(work, in.key, in.desc, buf)
						} else {
							stableSortByKey(work, in.key, in.desc)
						}
					}
					sortSink = work
				})
			}
		}
	}
}
