package dag

import (
	"math"
	"strings"
	"testing"
)

func TestScaleArenaAcquireZeroed(t *testing.T) {
	a := NewScaleArena()
	s := a.I32(8)
	for i := range s {
		s[i] = int32(i) + 1
	}
	a.Reset()
	s2 := a.I32(8)
	if &s[0] != &s2[0] {
		t.Fatalf("reset + same-size acquire did not reuse the slab")
	}
	for i, x := range s2 {
		if x != 0 {
			t.Fatalf("reacquired slab not zeroed at %d: %d", i, x)
		}
	}
	f := a.F64(4)
	f[0] = 3.5
	a.Reset()
	if f2 := a.F64(4); f2[0] != 0 {
		t.Fatalf("reacquired f64 slab not zeroed: %v", f2[0])
	}
}

func TestScaleArenaBestFit(t *testing.T) {
	a := NewScaleArena()
	big := a.I32(100)
	small := a.I32(10)
	a.Reset()
	// A 10-element request must pick the 10-cap slab, not the 100.
	got := a.I32(10)
	if &got[0] != &small[0] {
		t.Fatalf("best fit picked the wrong slab")
	}
	// And the next 10-element request has only the 100 left.
	got2 := a.I32(10)
	if &got2[0] != &big[0] {
		t.Fatalf("second acquire did not fall back to the larger slab")
	}
}

func TestScaleArenaRegrowLadder(t *testing.T) {
	a := NewScaleArena()
	grow := func() []int32 {
		var s []int32
		for i := 0; i < 1000; i++ {
			s = a.AppendI32(s, int32(i))
		}
		return s
	}
	s := grow()
	for i, x := range s {
		if x != int32(i) {
			t.Fatalf("append content corrupt at %d: %d", i, x)
		}
	}
	// The growth ladder's rungs are released, not forgotten, so the
	// footprint is the geometric ladder — bounded by ~2x the final slab.
	cold := a.Footprint()
	if limit := int64(cap(s)) * 4 * 3; cold > limit {
		t.Fatalf("footprint %d exceeds ladder bound %d", cold, limit)
	}
	// A warm replay rebinds the pooled rungs instead of allocating:
	// footprint must not move across resets.
	for i := 0; i < 3; i++ {
		a.Reset()
		s2 := grow()
		if s2[999] != 999 {
			t.Fatalf("warm replay content corrupt")
		}
	}
	if warm := a.Footprint(); warm != cold {
		t.Fatalf("footprint grew across warm append replays: cold %d, warm %d", cold, warm)
	}
}

func TestScaleArenaReleaseRecycles(t *testing.T) {
	a := NewScaleArena()
	s := a.I32(64)
	a.ReleaseI32(s)
	s2 := a.I32(64)
	if &s[0] != &s2[0] {
		t.Fatalf("release + acquire did not recycle the slab")
	}
	// Releasing a slice the arena does not own is a no-op.
	a.ReleaseI32(make([]int32, 64))
	a.ReleaseI32(nil)
}

func TestScaleArenaWarmFootprintConverges(t *testing.T) {
	a := NewScaleArena()
	run := func() {
		x := a.I32(1000)
		y := a.F64(500)
		a.ReleaseI32(x)
		z := a.I32(1000)
		_, _ = y, z
		b := a.Bool(300)
		c := a.Cls(300)
		_, _ = b, c
	}
	run()
	a.Reset()
	cold := a.Footprint()
	for i := 0; i < 5; i++ {
		run()
		a.Reset()
	}
	if warm := a.Footprint(); warm != cold {
		t.Fatalf("footprint grew across identical warm runs: cold %d, warm %d", cold, warm)
	}
}

func TestScaleArenaNilFallback(t *testing.T) {
	var a *ScaleArena
	if s := a.I32(4); len(s) != 4 {
		t.Fatalf("nil arena I32 len %d", len(s))
	}
	if s := a.F64(4); len(s) != 4 {
		t.Fatalf("nil arena F64 len %d", len(s))
	}
	if s := a.Bool(4); len(s) != 4 {
		t.Fatalf("nil arena Bool len %d", len(s))
	}
	if s := a.Cls(4); len(s) != 4 {
		t.Fatalf("nil arena Cls len %d", len(s))
	}
	var is []int32
	is = a.AppendI32(is, 7)
	if is[0] != 7 {
		t.Fatalf("nil arena AppendI32 lost the value")
	}
	a.ReleaseI32(is)
	a.Reset()
	if a.Footprint() != 0 {
		t.Fatalf("nil arena footprint nonzero")
	}
}

// TestStreamArenaBitIdentical pins the tentpole contract: the
// arena-threaded parse produces the same CSR, bit for bit, as the
// nil-arena parse — and a warm re-parse after Reset again.
func TestStreamArenaBitIdentical(t *testing.T) {
	stg := "5\n0 2 0\n1 3 1 0\n2 4 1 0\n3 1 2 1 2\n4 2.5 1 3\n"
	el := "v 4\nn 1\nn 2 # comment\n\ne 0 1 3\nn 0.5\ne 0 2 1.25\nn 7\ne 1 3 2\ne 2 3 4\n"

	want, err := StreamSTG(strings.NewReader(stg), 1.5)
	if err != nil {
		t.Fatalf("StreamSTG: %v", err)
	}
	a := NewScaleArena()
	for pass := 0; pass < 3; pass++ {
		a.Reset()
		got, err := StreamSTGArena(strings.NewReader(stg), 1.5, a)
		if err != nil {
			t.Fatalf("pass %d: StreamSTGArena: %v", pass, err)
		}
		compareCSR(t, want, got)
	}

	wantEL, err := StreamEdgeList(strings.NewReader(el))
	if err != nil {
		t.Fatalf("StreamEdgeList: %v", err)
	}
	for pass := 0; pass < 3; pass++ {
		a.Reset()
		got, err := StreamEdgeListArena(strings.NewReader(el), a)
		if err != nil {
			t.Fatalf("pass %d: StreamEdgeListArena: %v", pass, err)
		}
		compareCSR(t, wantEL, got)
	}
}

// TestStreamArenaErrorParity pins that malformed inputs fail with the
// same error text through both paths.
func TestStreamArenaErrorParity(t *testing.T) {
	bad := []string{
		"",
		"x\n",
		"3\n0 1 0\n",
		"2\n0 1 0\n1 2 5 0\n",
		"2\n0 -1 0\n1 1 0\n",
		"2\n0 1 0\n0 1 0\n",
		"2\n0 1 1 0\n1 1 1 0\n",          // cycle via dup ids? no: dup id error
		"3\n0 1 1 1\n1 1 1 2\n2 1 1 0\n", // cycle
	}
	for _, in := range bad {
		_, err1 := StreamSTG(strings.NewReader(in), 1)
		a := NewScaleArena()
		_, err2 := StreamSTGArena(strings.NewReader(in), 1, a)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("input %q: acceptance diverged: %v vs %v", in, err1, err2)
		}
		if err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("input %q: error text diverged:\n  %v\n  %v", in, err1, err2)
		}
	}
	badEL := []string{
		"",
		"w 3\n",
		"v 2\nn 1\n",
		"v 1\nn 1\nq 0 0 1\n",
		"v 2\nn 1\nn 1\ne 0 2 1\n",
		"v 2\nn 1\nn 1\ne 0 1 -3\n",
	}
	for _, in := range badEL {
		_, err1 := StreamEdgeList(strings.NewReader(in))
		a := NewScaleArena()
		_, err2 := StreamEdgeListArena(strings.NewReader(in), a)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("input %q: acceptance diverged: %v vs %v", in, err1, err2)
		}
		if err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("input %q: error text diverged:\n  %v\n  %v", in, err1, err2)
		}
	}
}

func compareCSR(t *testing.T, want, got *CSR) {
	t.Helper()
	if len(want.NodeW) != len(got.NodeW) || len(want.SuccTo) != len(got.SuccTo) {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d edges",
			len(want.NodeW), len(got.NodeW), len(want.SuccTo), len(got.SuccTo))
	}
	eqI32 := func(name string, a, b []int32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
	eqF64 := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	eqI32("PredOff", want.PredOff, got.PredOff)
	eqI32("PredFrom", want.PredFrom, got.PredFrom)
	eqF64("PredW", want.PredW, got.PredW)
	eqI32("SuccOff", want.SuccOff, got.SuccOff)
	eqI32("SuccTo", want.SuccTo, got.SuccTo)
	eqF64("SuccW", want.SuccW, got.SuccW)
	eqF64("NodeW", want.NodeW, got.NodeW)
}

// TestLevelsArenaBitIdentical pins the compact kernels' arena path.
func TestLevelsArenaBitIdentical(t *testing.T) {
	stg := "6\n0 2 0\n1 3 1 0\n2 4 1 0\n3 1 2 1 2\n4 2.5 1 3\n5 1 2 3 1\n"
	c, err := StreamSTG(strings.NewReader(stg), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ComputeLevelsCompactArena(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCls := c.ClassifyCompactArena(want, nil)
	wantStatic := c.StaticLevels(want, nil)

	a := NewScaleArena()
	var shell CompactLevels
	for pass := 0; pass < 3; pass++ {
		a.Reset()
		got, err := c.ComputeLevelsCompactArena(&shell, a)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got.CPLen != want.CPLen {
			t.Fatalf("pass %d: CPLen %v vs %v", pass, got.CPLen, want.CPLen)
		}
		for n := range want.TLevel {
			if got.TLevel[n] != want.TLevel[n] || got.BLevel[n] != want.BLevel[n] || got.Order[n] != want.Order[n] {
				t.Fatalf("pass %d: levels diverge at node %d", pass, n)
			}
		}
		gotCls := c.ClassifyCompactArena(got, a)
		gotStatic := c.StaticLevels(got, a)
		for n := range wantCls {
			if gotCls[n] != wantCls[n] {
				t.Fatalf("pass %d: class diverges at node %d: %v vs %v", pass, n, gotCls[n], wantCls[n])
			}
			if gotStatic[n] != wantStatic[n] {
				t.Fatalf("pass %d: static level diverges at node %d: %v vs %v", pass, n, gotStatic[n], wantStatic[n])
			}
		}
	}
}
