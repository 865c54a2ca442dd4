package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/schedtest"
)

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	sf := &snapshotFile{SavedAtUnixMS: 42}
	if err := saveSnapshot(path, sf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got == nil || got.SavedAtUnixMS != 42 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// No stray temp files after a clean save.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("snapshot dir has %d entries, want 1 (leftover temp files?)", len(ents))
	}
}

func TestSnapshotLoadMissingIsColdStart(t *testing.T) {
	sf, err := loadSnapshot(filepath.Join(t.TempDir(), "nope"))
	if sf != nil || err != nil {
		t.Fatalf("missing snapshot: got (%v, %v), want (nil, nil)", sf, err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	healthy := filepath.Join(dir, "healthy")
	if err := saveSnapshot(healthy, &snapshotFile{SavedAtUnixMS: 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(healthy)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped bit in the body fails the checksum.
	flipped := bytes.Clone(raw)
	flipped[len(flipped)-2] ^= 0x01
	// A truncation fails the checksum too.
	truncated := raw[:len(raw)-3]
	cases := map[string][]byte{
		"garbage":     []byte("not a snapshot at all"),
		"bad-version": []byte(strings.Replace(string(raw), " v1 ", " v9 ", 1)),
		"flipped-bit": flipped,
		"truncated":   truncated,
		"empty":       {},
	}
	for name, b := range cases {
		p := write(name, b)
		if _, err := loadSnapshot(p); err == nil || !strings.Contains(err.Error(), "corrupt snapshot") {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

func TestCorruptSnapshotQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := os.WriteFile(path, []byte("fastsched-snapshot v1 sha256=zzzz\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1, SnapshotPath: path})
	if err != nil {
		t.Fatalf("New with corrupt snapshot must start cold, got error: %v", err)
	}
	defer s.Close()
	rs := s.Restored()
	if rs.Quarantined == "" || !strings.Contains(rs.Quarantined, ".corrupt-") {
		t.Fatalf("corrupt snapshot not quarantined: %+v", rs)
	}
	if _, err := os.Stat(rs.Quarantined); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("original corrupt file still at the snapshot path: %v", err)
	}
	if v := s.Metrics().Counter("server.snapshot_quarantined").Value(); v != 1 {
		t.Errorf("snapshot_quarantined = %d, want 1", v)
	}
	// The server then serves and snapshots normally.
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot after quarantine: %v", err)
	}
	if _, err := loadSnapshot(path); err != nil {
		t.Errorf("fresh snapshot after quarantine unreadable: %v", err)
	}
}

// TestWarmRestartCacheHit is the acceptance kill-and-restart proof:
// results served after a restart from snapshot are byte-identical to
// the pre-restart ones, arrive as cache hits, and cost zero plan
// recompilations on the serving path.
func TestWarmRestartCacheHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	rng := rand.New(rand.NewSource(8))
	type workload struct {
		body []byte
		want []byte
	}
	workloads := make([]*workload, 6)

	s1, ts1 := newTestServer(t, Options{Workers: 2, SnapshotPath: path})
	for i := range workloads {
		g := schedtest.RandomLayered(rng, 16+4*i)
		workloads[i] = &workload{body: submitBody(t, g, 3, int64(i))}
		resp := postJSON(t, ts1.URL+"/v1/schedule", workloads[i].body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workload %d: %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		workloads[i].want = readBody(t, resp)
	}
	// Graceful stop cuts the final snapshot.
	if err := s1.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// "Restart": a brand-new server process state from the same path.
	reg := obs.NewRegistry()
	s2, err := New(Options{Workers: 2, SnapshotPath: path, Metrics: reg})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		_ = s2.Close()
	})
	rs := s2.Restored()
	if rs.Results != len(workloads) || rs.Plans != len(workloads) {
		t.Fatalf("restored %d results / %d plans, want %d / %d",
			rs.Results, rs.Plans, len(workloads), len(workloads))
	}
	// Baseline after restore: every serving-path compile from here on
	// is a regression.
	compileMisses := reg.Counter("plan.compile_misses").Value()
	cacheHits := reg.Counter("batch.cache_hits").Value()

	for i, w := range workloads {
		resp := postJSON(t, ts2.URL+"/v1/schedule", w.body, "")
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d: %d: %s", i, resp.StatusCode, got)
		}
		if hdr := resp.Header.Get("X-Fastsched-Cache"); hdr != "hit" {
			t.Errorf("replay %d: cache = %q, want hit", i, hdr)
		}
		if !bytes.Equal(got, w.want) {
			t.Errorf("replay %d: payload differs across restart:\npre:  %s\npost: %s", i, w.want, got)
		}
	}
	if d := reg.Counter("batch.cache_hits").Value() - cacheHits; d != int64(len(workloads)) {
		t.Errorf("cache_hits grew by %d, want %d", d, len(workloads))
	}
	if d := reg.Counter("plan.compile_misses").Value() - compileMisses; d != 0 {
		t.Errorf("plan.compile_misses grew by %d on the serving path, want 0 (recompilation!)", d)
	}
}

// TestWarmRestartKeepsSlotOrder restarts from a snapshot of graphs
// whose edges the client listed out of (from, to) order: a child before
// a lower one of the same parent, and a parent before a lower one of
// the same child. Each snapshot graph must read back under the content
// key its live plan had, so the same bodies under another seed compile
// nothing on the serving path.
func TestWarmRestartKeepsSlotOrder(t *testing.T) {
	type node struct {
		ID     int     `json:"id"`
		Weight float64 `json:"weight"`
	}
	type edge struct {
		From   int     `json:"from"`
		To     int     `json:"to"`
		Weight float64 `json:"weight"`
	}
	type graph struct {
		Nodes []node `json:"nodes"`
		Edges []edge `json:"edges"`
	}
	// 1 -> 2 before 0 -> 2, and 0 -> 2 before 0 -> 1.
	tri := graph{
		Nodes: []node{{0, 2}, {1, 3}, {2, 4}, {3, 1}},
		Edges: []edge{{1, 2, 6}, {0, 2, 5}, {0, 1, 1}, {2, 3, 2}, {1, 3, 3}},
	}
	// A layered graph with its edges in shuffled order.
	rng := rand.New(rand.NewSource(5))
	g := schedtest.RandomLayered(rng, 40)
	var shuffled graph
	for n := 0; n < g.NumNodes(); n++ {
		shuffled.Nodes = append(shuffled.Nodes, node{n, g.Weight(dag.NodeID(n))})
		for _, e := range g.Succ(dag.NodeID(n)) {
			shuffled.Edges = append(shuffled.Edges, edge{int(e.From), int(e.To), e.Weight})
		}
	}
	rng.Shuffle(len(shuffled.Edges), func(i, j int) {
		shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
	})
	graphs := []graph{tri, shuffled}
	body := func(gr graph, seed int64) []byte {
		raw, err := json.Marshal(gr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(submitRequest{Graph: raw, Procs: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(url string, b []byte) {
		t.Helper()
		resp := postJSON(t, url+"/v1/schedule", b, "")
		if got := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%d: %s", resp.StatusCode, got)
		}
	}

	path := filepath.Join(t.TempDir(), "snap")
	s1, ts1 := newTestServer(t, Options{Workers: 1, SnapshotPath: path})
	for _, gr := range graphs {
		post(ts1.URL, body(gr, 1))
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	reg := obs.NewRegistry()
	s2, err := New(Options{Workers: 1, SnapshotPath: path, Metrics: reg})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		_ = s2.Close()
	})
	if rs := s2.Restored(); rs.Plans != len(graphs) {
		t.Fatalf("restored %d plans, want %d", rs.Plans, len(graphs))
	}
	compileMisses := reg.Counter("plan.compile_misses").Value()
	for _, gr := range graphs {
		post(ts2.URL, body(gr, 2))
	}
	if d := reg.Counter("plan.compile_misses").Value() - compileMisses; d != 0 {
		t.Errorf("plan.compile_misses grew by %d on the serving path, want 0: a snapshot graph read back under another key", d)
	}
}

func TestPeriodicSnapshotLoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	s, ts := newTestServer(t, Options{Workers: 1, SnapshotPath: path, SnapshotEvery: 20 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/schedule", submitBody(t, schedtest.Chain(4, 1), 2, 0), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	readBody(t, resp)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sf, err := loadSnapshot(path)
		if err == nil && sf != nil && len(sf.Results) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("periodic loop never snapshotted the result (sf=%v err=%v)", sf, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Metrics().Counter("server.snapshot_saves").Value() == 0 {
		t.Error("snapshot_saves = 0 after periodic saves")
	}
}

func TestSnapshotSkipsPartialResults(t *testing.T) {
	// A snapshot body with a malformed result entry restores everything
	// else: one bad record costs one cold run, not the snapshot.
	path := filepath.Join(t.TempDir(), "snap")
	sf := &snapshotFile{
		Results: []snapshotResult{{Key: "zz-not-hex"}},
	}
	if err := saveSnapshot(path, sf); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1, SnapshotPath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if rs := s.Restored(); rs.Results != 0 || rs.Quarantined != "" {
		t.Errorf("restore stats = %+v, want 0 results, no quarantine", rs)
	}
}

func TestSnapshotGraphsSurviveJSONRoundTrip(t *testing.T) {
	// The content-address soundness of the snapshot: a graph written to
	// the snapshot and read back must serialize identically, otherwise
	// restored plans would not match serving-path keys.
	rng := rand.New(rand.NewSource(9))
	g := schedtest.RandomLayered(rng, 40)
	raw := graphJSON(t, g)
	var sf snapshotFile
	b, err := json.Marshal(snapshotFile{Graphs: []json.RawMessage{raw}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sf); err != nil {
		t.Fatal(err)
	}
	// Marshal compacts the raw message; what must hold is that the
	// graph read back from the snapshot re-serializes to the original
	// bytes, so content keys computed from it match the live ones.
	g2, _, err := dag.ReadJSON(bytes.NewReader(sf.Graphs[0]))
	if err != nil {
		t.Fatalf("snapshot graph does not parse: %v", err)
	}
	if again := graphJSON(t, g2); !bytes.Equal(again, raw) {
		t.Errorf("graph JSON not stable across snapshot round trip:\n%s\n%s", raw, again)
	}
}
