package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastsched/internal/batch"
	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// The reflective request decoder and response encoder that the
// one-pass path replaced, kept as differential oracles: decodeSubmit
// must agree with decodeSubmitReflect on every body, and encodeResult
// must write exactly the bytes json.Encoder writes for
// toScheduleResult.

// submitRequest is the submit body as encoding/json decoded it.
type submitRequest struct {
	Graph      json.RawMessage `json:"graph"`
	Algorithm  string          `json:"algorithm"`
	Procs      int             `json:"procs"`
	Seed       int64           `json:"seed"`
	DeadlineMS int64           `json:"deadline_ms"`
	NoCache    bool            `json:"no_cache"`
}

// placementJSON is one node's slot in a response.
type placementJSON struct {
	Node   int     `json:"node"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// scheduleResult is the 200 body.
type scheduleResult struct {
	Algorithm  string          `json:"algorithm"`
	Makespan   float64         `json:"makespan"`
	ProcsUsed  int             `json:"procs_used"`
	Placements []placementJSON `json:"placements"`
}

func toScheduleResult(algorithm string, sc *sched.Schedule) *scheduleResult {
	v := sc.NumNodes()
	out := &scheduleResult{
		Algorithm:  algorithm,
		Makespan:   sc.Length(),
		ProcsUsed:  sc.ProcsUsed(),
		Placements: make([]placementJSON, v),
	}
	for i := 0; i < v; i++ {
		pl := sc.Of(dag.NodeID(i))
		out.Placements[i] = placementJSON{Node: i, Proc: pl.Proc, Start: pl.Start, Finish: pl.Finish}
	}
	return out
}

// decodeSubmitReflect is the admission pipeline's decode stage as it
// was: a json.Decoder over the body into submitRequest, then the graph
// bytes through a second decoder into the dag file form.
func decodeSubmitReflect(body []byte) (batch.Request, *ErrorBody) {
	var sreq submitRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sreq); err != nil {
		return batch.Request{}, &ErrorBody{Code: CodeInvalidRequest, Message: "body does not parse: " + err.Error()}
	}
	if len(sreq.Graph) == 0 {
		return batch.Request{}, &ErrorBody{Code: CodeInvalidGraph, Message: "missing graph"}
	}
	g, err := readGraphReflect(sreq.Graph)
	if err != nil {
		return batch.Request{}, &ErrorBody{Code: CodeInvalidGraph, Message: err.Error()}
	}
	if sreq.DeadlineMS < 0 {
		return batch.Request{}, &ErrorBody{Code: CodeInvalidRequest, Message: "deadline_ms must be non-negative"}
	}
	return batch.Request{Graph: g, Procs: sreq.Procs, Algorithm: sreq.Algorithm, Seed: sreq.Seed,
		Deadline: time.Duration(sreq.DeadlineMS) * time.Millisecond, NoCache: sreq.NoCache}, nil
}

// readGraphReflect is dag.ReadJSON as it was built on encoding/json.
func readGraphReflect(raw []byte) (*dag.Graph, error) {
	type node struct {
		ID     int     `json:"id"`
		Label  string  `json:"label"`
		Weight float64 `json:"weight"`
	}
	var jg struct {
		Name  string `json:"name"`
		Nodes []node `json:"nodes"`
		Edges []struct {
			From   int     `json:"from"`
			To     int     `json:"to"`
			Weight float64 `json:"weight"`
		} `json:"edges"`
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&jg); err != nil {
		return nil, err
	}
	v := len(jg.Nodes)
	nodes := make([]node, v)
	seen := make([]bool, v)
	for _, n := range jg.Nodes {
		if n.ID < 0 || n.ID >= v || seen[n.ID] {
			return nil, fmt.Errorf("bad node id %d", n.ID)
		}
		seen[n.ID] = true
		nodes[n.ID] = n
	}
	g := dag.New(v)
	for _, n := range nodes {
		g.AddNode(n.Label, n.Weight)
	}
	for _, e := range jg.Edges {
		if e.From < 0 || e.From >= v || e.To < 0 || e.To >= v {
			return nil, fmt.Errorf("edge endpoint out of range: %d -> %d", e.From, e.To)
		}
		if err := g.AddEdge(dag.NodeID(e.From), dag.NodeID(e.To), e.Weight); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

// checkSubmitParity decodes body both ways and fails on any
// disagreement: acceptance, the rejection's error code, and on
// acceptance the graph's content key and labels and every request
// parameter (deadline_ms as the Deadline it becomes). (The graph's name, which schedd drops, is compared by
// dag's FuzzReadJSON over the same decoder.)
func checkSubmitParity(t testing.TB, body []byte) {
	t.Helper()
	got, gotRej := decodeSubmit(body)
	want, wantRej := decodeSubmitReflect(body)
	if (gotRej == nil) != (wantRej == nil) {
		t.Fatalf("acceptance differs for %q:\none-pass: %+v\nreflect:  %+v", body, gotRej, wantRej)
	}
	if gotRej != nil {
		if gotRej.Code != wantRej.Code {
			t.Fatalf("rejection code differs for %q: one-pass %s (%s), reflect %s (%s)",
				body, gotRej.Code, gotRej.Message, wantRej.Code, wantRej.Message)
		}
		return
	}
	if plan.GraphKey(got.Graph) != plan.GraphKey(want.Graph) {
		t.Fatalf("graph content key differs for %q", body)
	}
	for i, n := range want.Graph.Nodes() {
		if l := got.Graph.Label(n.ID); l != n.Label {
			t.Fatalf("node %d label %q, want %q (body %q)", i, l, n.Label, body)
		}
	}
	got.Graph, want.Graph = nil, nil
	if got != want {
		t.Fatalf("parameters differ for %q:\none-pass: %+v\nreflect:  %+v", body, got, want)
	}
}

// submitParitySeeds are bodies a naive one-pass decoder gets wrong.
var submitParitySeeds = []string{
	// Keys match exactly, then case-folded (ſ folds to s; ı does not fold to i).
	`{"GRAPH":{"NODES":[{"ID":0,"Weight":1,"LABEL":"a"}],"Edges":[]},"Procs":2,"SEED":3,"No_Cache":true}`,
	`{"graph":{"nodeſ":[{"id":0,"weight":1}]},"ſeed":5,"procs":1}`,
	`{"graph":{"nodes":[{"ıd":1,"weight":1}]}}`,
	`{"gr\u0061ph":{"nodes":[{"id":0,"weight":1}]},"pr\u006fcs":3}`,
	// Repeated keys: the graph's last value wins; nodes/edges decode in place.
	`{"graph":{"nodes":[{"id":5}]},"graph":{"nodes":[{"id":0,"weight":1}]},"procs":1}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"graph":{"nodes":[{"id":5}]}}`,
	`{"graph":{"nodes":[{"id":1,"weight":2,"label":"x"},{"id":0,"weight":1}],"nodes":[{"id":0}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":2},{"id":2,"weight":3}],"nodes":[{"id":1}],"nodes":[{"id":0},{},{"id":2}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"from":0,"to":1,"weight":4}],"edges":[{"weight":2}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"nodes":[],"nodes":[{"id":1}]}}`,
	`{"procs":"x","procs":2,"graph":{"nodes":[{"id":0,"weight":1}]}}`,
	// null members, a null graph and a null body.
	`{"graph":{"name":null,"nodes":null,"edges":null},"algorithm":null,"procs":null,"seed":null,"deadline_ms":null,"no_cache":null}`,
	`{"graph":{"nodes":[null,{"id":null,"label":null,"weight":null}],"edges":[null]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}],"nodes":null}}`,
	`{"graph":null}`,
	`null`,
	`{}`,
	// Integer fields given a fraction or an exponent, out-of-range numbers.
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"procs":1.0}`,
	`{"graph":{"nodes":[{"id":1.0,"weight":1}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"seed":1e2}`,
	`{"graph":{"nodes":[{"id":0,"weight":1e400}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1e-400}]},"seed":-9223372036854775808}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"seed":9223372036854775808}`,
	`{"graph":{"nodes":[{"id":0,"weight":-0}]},"deadline_ms":-0}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"deadline_ms":-1}`,
	`{"graph":{"nodes":[{"id":"0","weight":1}]},"deadline_ms":-1}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"no_cache":1}`,
	`{"graph":[],"procs":"x"}`,
	`{"graph":"x"}`,
	`[{"graph":{}}]`,
	`"graph"`,
	// Escaped labels and labels with invalid UTF-8.
	`{"graph":{"nodes":[{"id":0,"weight":1,"label":"a\"b\\c\/\u00e9\ud83d\ude00\ud800\n"}]},"algorithm":"f\u0061st"}`,
	"{\"graph\":{\"nodes\":[{\"id\":0,\"weight\":1,\"label\":\"\xff\xfe\xc3(ok\"}]},\"algorithm\":\"\xe2\x80\xa8\"}",
	// Trailing bytes after the value stay ignored; syntax errors anywhere win.
	`{"graph":{"nodes":[{"id":0,"weight":1}]}} trailing garbage {`,
	`null x`,
	`{"graph":{"nodes":[{"id":"x"}]},"procs":}`,
	`{"graph":{"nodes":[{"id":0,"weight":1},]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":01}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1.}]}}`,
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"x":[1,{"y":tru}]}`,
	"{\"graph\":{\"nodes\":[{\"id\":0,\"weight\":1,\"label\":\"a\x01\"}]}}",
	`{"graph":{"nodes":[{"id":0,"weight":1}]},"x":"\q"}`,
	``,
	`  `,
}

// TestSubmitParity runs the seeds, plus encoding/json's nesting limit at
// and one past its edge (too large to be useful fuzz seeds).
func TestSubmitParity(t *testing.T) {
	for _, body := range submitParitySeeds {
		checkSubmitParity(t, []byte(body))
	}
	for _, depth := range []int{9999, 10000} {
		checkSubmitParity(t, []byte(`{"graph":{"nodes":[{"id":0,"weight":1}]},"x":`+
			strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
	}
}

// TestResultBytesMatchEncodingJSON pins encodeResult to json.Encoder's
// output over random schedules, including the 'e'-format ranges below
// 1e-6 and from 1e21 up, and over algorithm names that need escaping.
func TestResultBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-6 * math.Pow(10, -float64(rng.Intn(300)))
		case 2:
			return 1e21 * (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(280)))
		case 3:
			return []float64{1e-6, 1e21, 9.999999999999999e20, 5e-324, math.MaxFloat64, math.Copysign(0, -1), 1e-7, 1.5e-10}[rng.Intn(8)]
		case 4:
			return float64(rng.Intn(1000))
		case 5:
			return math.Round(rng.Float64()*1e6) / 1000
		case 6:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return math.Abs(f)
			}
			return 1
		default:
			return rng.ExpFloat64() * 100
		}
	}
	names := []string{"fast", "pfast", "", "a<b>&c", "q\"uote\\", "tab\there\n", "\u2028\u2029", "é", "bad\xffutf8", "\x7f\x01"}
	for trial := 0; trial < 300; trial++ {
		v := rng.Intn(12)
		sc := sched.New(v)
		for i := 0; i < v; i++ {
			st, fin := value(), value()
			if fin < st {
				st, fin = fin, st
			}
			sc.Place(dag.NodeID(i), rng.Intn(5), st, fin)
		}
		alg := names[trial%len(names)]
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(toScheduleResult(alg, sc)); err != nil {
			t.Fatal(err)
		}
		got, err := encodeResult(alg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("trial %d: body differs from encoding/json:\n got %s\nwant %s", trial, got, want.Bytes())
		}
	}
	sc := sched.New(1)
	sc.Place(0, 0, 0, math.Inf(1))
	if _, err := encodeResult("fast", sc); err == nil {
		t.Fatal("non-finite placement encoded without an error")
	}
}

// TestEveryAnswerPathIsByteIdentical sends one request down every path
// that can answer it and requires one 200 body from /v1/schedule, from
// a /v1/jobs poll and from the SSE result event. The paths, in order: a
// miss, a result-cache hit, a body-index hit, a whitespace-only variant
// of the body (a result-cache hit through decode), and after a snapshot
// restart a result-cache hit and then an index hit. Sync requests and
// jobs go to twin servers that see the same sequence, so each path is
// reached both ways. The index counters and the engine's admissions
// move only as each path predicts.
func TestEveryAnswerPathIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	body := submitBody(t, schedtest.RandomLayered(rand.New(rand.NewSource(12)), 40), 3, 7)
	spaced := append(append([]byte(" \n\t"), body...), " \r\n"...)
	start := func(name string) *Server {
		s, err := New(Options{Workers: 2, SnapshotPath: filepath.Join(dir, name)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	syncSrv, jobSrv := start("sync"), start("jobs")
	t.Cleanup(func() {
		syncSrv.Close()
		jobSrv.Close()
	})

	var want []byte
	for _, step := range []struct {
		name     string
		body     []byte
		cache    string
		indexHit bool
		restart  bool
	}{
		{"miss", body, "miss", false, false},
		{"result-cache hit", body, "hit", false, false},
		{"index hit", body, "hit", true, false},
		{"whitespace variant", spaced, "hit", false, false},
		{"restored result-cache hit", body, "hit", false, true},
		{"index hit after restart", body, "hit", true, false},
	} {
		if step.restart {
			if err := syncSrv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := jobSrv.Close(); err != nil {
				t.Fatal(err)
			}
			syncSrv, jobSrv = start("sync"), start("jobs")
		}
		type counts struct{ hits, misses, admitted int64 }
		read := func(s *Server) counts {
			h, m := indexCounts(s)
			return counts{h, m, s.Metrics().Counter("batch.admitted").Value()}
		}
		before := [2]counts{read(syncSrv), read(jobSrv)}

		rec := serveOnce(syncSrv.Handler(), http.MethodPost, "/v1/schedule", step.body, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.name, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get("X-Fastsched-Cache"); got != step.cache {
			t.Errorf("%s: X-Fastsched-Cache = %q, want %q", step.name, got, step.cache)
		}
		if got := rec.Header().Get("X-Fastsched-Elapsed-Ms"); step.indexHit && got != "0" {
			t.Errorf("%s: X-Fastsched-Elapsed-Ms = %q, want 0", step.name, got)
		}
		if want == nil {
			want = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: sync body differs:\n got %s\nwant %s", step.name, rec.Body.Bytes(), want)
		}

		env, sse := jobOutcome(t, jobSrv.Handler(), step.body)
		if env.Error != nil || env.Cache != step.cache {
			t.Errorf("%s: job cache %q error %+v, want %q", step.name, env.Cache, env.Error, step.cache)
		}
		trimmed := bytes.TrimSuffix(want, []byte("\n"))
		if !bytes.Equal(env.Result, trimmed) {
			t.Errorf("%s: polled result differs:\n got %s\nwant %s", step.name, env.Result, trimmed)
		}
		if !bytes.Equal(sse, trimmed) {
			t.Errorf("%s: SSE result differs:\n got %s\nwant %s", step.name, sse, trimmed)
		}

		hit := int64(0)
		if step.indexHit {
			hit = 1
		}
		for i, s := range []*Server{syncSrv, jobSrv} {
			after := read(s)
			d := counts{after.hits - before[i].hits, after.misses - before[i].misses, after.admitted - before[i].admitted}
			if d != (counts{hit, 1 - hit, 1 - hit}) {
				t.Errorf("%s (server %d): index hits +%d, misses +%d, engine admissions +%d; want +%d, +%d, +%d",
					step.name, i, d.hits, d.misses, d.admitted, hit, 1-hit, 1-hit)
			}
		}
	}
}
