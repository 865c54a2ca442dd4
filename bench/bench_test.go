package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// value returns the named metric's value (NaN when absent).
func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// specNames returns the end-to-end and per-layer metric names that
// BENCHMARK.json declares.
func specNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// checkResult fails unless res reports exactly the named metrics, all
// finite, with no failed operation.
func checkResult(t *testing.T, res *result, want []string) {
	t.Helper()
	var got []string
	for _, m := range res.metrics {
		got = append(got, m.name)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v, not finite", m.name, m.value)
		}
	}
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metrics\n got %v\nwant %v", got, want)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("attempted %d, failed %d; facts: %v", res.attempted, res.failed, res.facts)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsReportEndToEndMetrics(t *testing.T) {
	endToEnd, _ := specNames(t)
	cfg := toyConfig()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			run := workloads[name].run
			a, err := run(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, a, endToEnd)
			b, err := run(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := run(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			q := "makespan_over_lb"
			if a.value(q) != b.value(q) {
				t.Errorf("%s differs between two runs of seed 1: %v, %v", q, a.value(q), b.value(q))
			}
			if a.value(q) == c.value(q) {
				t.Errorf("%s is %v for seeds 1 and 2", q, a.value(q))
			}
		})
	}
}

func TestLedgerReportsPerLayerMetrics(t *testing.T) {
	_, perLayer := specNames(t)
	cfg := toyConfig()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, tracers, err := runLedger(name, workloads[name].overhead, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if len(tracers) == 0 {
				t.Error("no spans recorded")
			}
			if hot, cold := res.value("batch.result_hit_ratio.hot"), res.value("batch.result_hit_ratio.cold"); hot < 0.99 || cold > 0.01 {
				t.Errorf("result-cache hit ratio %v hot, %v cold; want >= 0.99 and <= 0.01", hot, cold)
			}
		})
	}
}

func TestOnlineLedgerIsDeterministic(t *testing.T) {
	// Toy jobs never miss a deadline; the benchmark's own mix does.
	cfg := toyConfig()
	cfg.onlineMix, cfg.onlineJobs = fullConfig(1).onlineMix, 300
	metrics := func(seed int64) [2]float64 {
		res := &result{}
		if err := ledgerOnline(res, nil, cfg, seed); err != nil {
			t.Fatal(err)
		}
		return [2]float64{res.value("online.miss_ratio"), res.value("online.tardiness_mean")}
	}
	a, b, c := metrics(1), metrics(1), metrics(2)
	if a != b {
		t.Errorf("miss ratio and tardiness differ between two runs of seed 1: %v, %v", a, b)
	}
	if a == c {
		t.Errorf("miss ratio and tardiness are %v for seeds 1 and 2", a)
	}
}

// The reference kernel measures the host's speed; an allocation would
// let garbage-collection work land in its time.
func TestRefProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { refProbe() }); n != 0 {
		t.Errorf("refProbe allocates %v times per run", n)
	}
	if ms := refProbe(); ms <= 0 {
		t.Errorf("refProbe took %v ms", ms)
	}
}

func TestReportPrintsOneJSONLine(t *testing.T) {
	res := &result{attempted: 3, failed: 1}
	res.add("cpu_ms_per_op", 1.25, "ms", 3)
	var out bytes.Buffer
	if err := report(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, " ") != "attempted correct failed metrics" {
		t.Errorf("keys %v", keys)
	}
	if string(got["correct"]) != "false" || string(got["metrics"]) != `{"cpu_ms_per_op":{"value":1.25,"unit":"ms"}}` {
		t.Errorf("last line %s", lines[len(lines)-1])
	}

	res.add("heap_mb", math.NaN(), "MB", 1)
	if err := report(&out, res); err == nil {
		t.Error("a NaN metric was reported")
	}
}
