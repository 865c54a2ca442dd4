package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsched"
	"fastsched/internal/example"
)

// capture redirects os.Stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

// demoOpts returns the baseline flag set the tests start from.
func demoOpts() options {
	return options{demo: true, algo: "fast", procs: 4, seed: 1, width: 60, metricsFmt: "json"}
}

func TestRunDemo(t *testing.T) {
	o := demoOpts()
	o.table = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paper example", "FAST schedule", "schedule length", "start"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fastsched.WriteGraphJSON(f, example.Graph(), "demo"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	o := demoOpts()
	o.demo, o.in, o.algo, o.procs = false, path, "dsc", 0
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DSC schedule") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunDot(t *testing.T) {
	o := demoOpts()
	o.dot = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "digraph") {
		t.Errorf("dot output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	o := demoOpts()
	o.demo = false
	if err := run(o); err == nil {
		t.Error("missing input accepted")
	}
	o.in = "/nonexistent.json"
	if err := run(o); err == nil {
		t.Error("bad path accepted")
	}
	bad := demoOpts()
	bad.algo = "bogus"
	if _, err := capture(t, func() error { return run(bad) }); err == nil {
		t.Error("bad algorithm accepted")
	}
	// fast-hier takes a metrics sink but runs no search, so it records
	// no trajectory either.
	for _, algo := range []string{"etf", "fast-hier"} {
		traj := demoOpts()
		traj.algo = algo
		traj.trajectory = filepath.Join(t.TempDir(), "t.jsonl")
		if _, err := capture(t, func() error { return run(traj) }); err == nil {
			t.Errorf("-trajectory accepted for %s", algo)
		}
	}
	badFmt := demoOpts()
	badFmt.metrics = filepath.Join(t.TempDir(), "m.out")
	badFmt.metricsFmt = "yaml"
	if _, err := capture(t, func() error { return run(badFmt) }); err == nil {
		t.Error("bad -metrics-format accepted")
	}
}

func TestRunWhyAndSVG(t *testing.T) {
	o := demoOpts()
	o.svg = filepath.Join(t.TempDir(), "g.svg")
	o.why = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "critical chain") {
		t.Errorf("missing critical chain:\n%s", out)
	}
	data, err := os.ReadFile(o.svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("svg file content: %.40s", data)
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	o := demoOpts()
	o.cpuProfile = filepath.Join(dir, "cpu.pprof")
	o.memProfile = filepath.Join(dir, "mem.pprof")
	o.execTrace = filepath.Join(dir, "run.trace")
	if _, err := capture(t, func() error { return run(o) }); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.cpuProfile, o.memProfile, o.execTrace} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
