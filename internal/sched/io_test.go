package sched

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"fastsched/internal/dag"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Algorithm = "FAST"
	s.Place(0, 0, 0, 2)
	s.Place(1, 0, 2, 5)
	s.Place(2, 1, 6, 7)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadJSON(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Algorithm != "FAST" {
		t.Fatalf("algorithm = %q", s2.Algorithm)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if s.Of(0) != s2.Of(0) {
			t.Fatalf("placement %d changed", i)
		}
	}
}

func TestWriteJSONRejectsIncomplete(t *testing.T) {
	g := chainGraph(t)
	s := New(g.NumNodes())
	s.Place(0, 0, 0, 2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err == nil {
		t.Fatal("incomplete schedule serialized")
	}
}

func TestReadJSONValidates(t *testing.T) {
	g := chainGraph(t)
	cases := map[string]string{
		"garbage":    `]]`,
		"wrong size": `{"placements":[{"node":0,"proc":0,"start":0,"finish":2}]}`,
		"bad node":   `{"placements":[{"node":9,"proc":0,"start":0,"finish":2},{"node":1,"proc":0,"start":2,"finish":5},{"node":2,"proc":0,"start":5,"finish":6}]}`,
		"dup node":   `{"placements":[{"node":0,"proc":0,"start":0,"finish":2},{"node":0,"proc":0,"start":2,"finish":4},{"node":2,"proc":0,"start":5,"finish":6}]}`,
		// violates precedence: node 1 starts before parent 0's message
		"invalid": `{"placements":[{"node":0,"proc":0,"start":0,"finish":2},{"node":1,"proc":1,"start":2,"finish":5},{"node":2,"proc":1,"start":5,"finish":6}]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in), g); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadJSONRejectsOutOfRangeProcs: a processor ID a schedule cannot
// store is a decode error, not a panic in Place.
func TestReadJSONRejectsOutOfRangeProcs(t *testing.T) {
	g := chainGraph(t)
	for _, proc := range []string{"-1", "1099511627776", "2147483648"} {
		in := `{"placements":[{"node":0,"proc":` + proc + `,"start":0,"finish":2},{"node":1,"proc":0,"start":2,"finish":5},{"node":2,"proc":0,"start":5,"finish":6}]}`
		if _, err := ReadJSON(strings.NewReader(in), g); err == nil || !strings.Contains(err.Error(), "processor") {
			t.Errorf("proc %s: err = %v", proc, err)
		}
	}
}

// TestReadJSONSparseProcessorMemory guards the view's memory rule: a
// 2-node schedule on processor 2147483646 validates without memory in
// proportion to the processor ID.
func TestReadJSONSparseProcessorMemory(t *testing.T) {
	g := dag.New(2)
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	g.MustAddEdge(a, b, 5)
	in := `{"placements":[{"node":0,"proc":2147483646,"start":0,"finish":1},{"node":1,"proc":2147483646,"start":1,"finish":2}]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := ReadJSON(strings.NewReader(in), g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() != 1 || s.Procs()[0] != 2147483646 {
		t.Fatalf("procs %v", s.Procs())
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("read and validated a 2-node schedule with %d bytes allocated, limit 1 MB", d)
	}
}
