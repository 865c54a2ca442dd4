package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// corpusGraphs extracts the graph bytes from the batch engine's fuzz
// corpus (internal/batch/testdata/fuzz/FuzzBatchSubmit). Those files
// are historical crashers and interesting inputs for the submission
// path; replaying them through the HTTP front end keeps them as
// regression inputs one layer up (satellite: oversized/malformed
// rejection must hold for every one of them).
func corpusGraphs(t testing.TB) [][]byte {
	t.Helper()
	dir := filepath.Join("..", "batch", "testdata", "fuzz", "FuzzBatchSubmit")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no batch fuzz corpus: %v", err)
	}
	var out [][]byte
	for _, ent := range ents {
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			if s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1]); err == nil {
				out = append(out, []byte(s))
			}
			break // first []byte line is the graph payload
		}
		f.Close()
	}
	if len(out) == 0 {
		t.Skip("batch fuzz corpus holds no byte inputs")
	}
	return out
}

// fuzzServer is shared across fuzz iterations (and corpus replays) —
// one engine, exercised by thousands of adversarial bodies.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler(t testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		var err error
		fuzzSrv, err = New(Options{Workers: 1, QueueDepth: 8, MaxBodyBytes: 1 << 20})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
	})
	return fuzzSrv.Handler()
}

// checkSubmitResponse runs one body through POST /v1/schedule and
// asserts the contract every input — hostile or not — gets: a known
// status code and a well-formed JSON body (a schedule on 200, a typed
// error otherwise). Panics or hangs fail the fuzz run on their own. It
// returns the status, the error code (empty on 200) and the body.
func checkSubmitResponse(t testing.TB, h http.Handler, body []byte) (status int, code string, resp []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK:
		var res scheduleResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Errorf("200 with non-schedule body: %v\n%s", err, rec.Body.Bytes())
		}
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, 499:
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Errorf("status %d with untyped error body: %s", rec.Code, rec.Body.Bytes())
		}
		code = env.Error.Code
	default:
		t.Errorf("unexpected status %d for body %q", rec.Code, body)
	}
	return rec.Code, code, rec.Body.Bytes()
}

// checkSubmitRepeats posts body three times, so a body the engine
// answers from its result cache is answered from the body index on the
// third try. Every repeat must get the first answer's status and error
// code, and every 200 the same bytes. The one exception is a deadline:
// whether it expires depends on timing, so a 504 may turn into a 200.
func checkSubmitRepeats(t testing.TB, h http.Handler, body []byte) {
	status, code, first := checkSubmitResponse(t, h, body)
	var ok []byte
	if status == http.StatusOK {
		ok = first
	}
	okOrLate := func(s int) bool { return s == http.StatusOK || s == http.StatusGatewayTimeout }
	for i := 1; i < 3; i++ {
		s, c, resp := checkSubmitResponse(t, h, body)
		if (s != status || c != code) && !(okOrLate(s) && okOrLate(status)) {
			t.Fatalf("repeat %d of %q: status %d %q, first answer %d %q", i, body, s, c, status, code)
		}
		if s != http.StatusOK {
			continue
		}
		if ok == nil {
			ok = resp
		} else if !bytes.Equal(resp, ok) {
			t.Fatalf("repeat %d of %q: 200 body differs:\n got %s\nwant %s", i, body, resp, ok)
		}
	}
}

// TestCorpusReplayThroughHTTP is the deterministic regression replay:
// every historical fuzz input must produce a typed response today.
func TestCorpusReplayThroughHTTP(t *testing.T) {
	h := fuzzHandler(t)
	for _, graph := range corpusGraphs(t) {
		// Replay the raw graph bytes both as a whole request body and
		// wrapped in a proper submit envelope.
		checkSubmitRepeats(t, h, graph)
		body, err := json.Marshal(submitRequest{Graph: json.RawMessage(graph), Procs: 2})
		if err == nil {
			checkSubmitRepeats(t, h, body)
		}
	}
}

// FuzzSubmitHTTP holds every body to the HTTP contract, on each of
// three repeats, and to parity between the one-pass decoder and its
// reflective oracle.
func FuzzSubmitHTTP(f *testing.F) {
	for _, graph := range corpusGraphs(f) {
		f.Add(graph)
		if body, err := json.Marshal(submitRequest{Graph: json.RawMessage(graph), Procs: 2}); err == nil {
			f.Add(body)
		}
	}
	f.Add([]byte(`{"graph":{"nodes":[{"id":0,"weight":1}]},"procs":1}`))
	f.Add([]byte(`{"graph":{"nodes":[]},"deadline_ms":-1}`))
	f.Add([]byte(`{`))
	for _, body := range submitParitySeeds {
		f.Add([]byte(body))
	}
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmitParity(t, body)
		checkSubmitRepeats(t, h, body)
	})
}
