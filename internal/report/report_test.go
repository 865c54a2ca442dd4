package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteSmallReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Small()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Figure 1 — example DAG attributes",
		"Figures 2–4",
		"<svg",
		"Figure 5 — Gaussian elimination",
		"Figure 8 — random DAGs",
		"Search telemetry",
		"fast.search.steps_tried",
		"listsched.ready_list_len",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Extended comparison") {
		t.Error("small report should skip the extended study")
	}
}

func TestOptionsPresets(t *testing.T) {
	f := Full()
	if len(f.GaussDims) != 4 || !f.Extended || f.RandomProcs != 256 {
		t.Fatalf("Full() = %+v", f)
	}
	s := Small()
	if len(s.RandomSizes) != 1 || s.Extended {
		t.Fatalf("Small() = %+v", s)
	}
}

func TestWriteReportWithExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extended report is slow")
	}
	opts := Small()
	opts.Extended = true
	var buf bytes.Buffer
	if err := Write(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Extended comparison", "CCR sensitivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteReportSkipsEmptySections(t *testing.T) {
	opts := Options{} // everything empty/off
	var buf bytes.Buffer
	if err := Write(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "Figure 5") || strings.Contains(out, "Figure 8") {
		t.Errorf("empty options rendered studies:\n%.200s", out)
	}
	if strings.Contains(out, "Search telemetry") {
		t.Error("empty options rendered the telemetry section")
	}
	if !strings.Contains(out, "Figure 1") {
		t.Error("Figure 1 should always render")
	}
}
