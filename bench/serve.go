package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"fastsched/internal/bounds"
	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/server"
)

// resultCacheSize is schedd's default result-cache capacity, pinned so
// serve-cold's pool stays at least twice the cache.
const resultCacheSize = 1024

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// serveClients is the closed-loop client count: two, and never more
// than the host's CPUs, so load generation cannot outnumber them.
func serveClients() int { return min(2, runtime.NumCPU()) }

// serveRig is one in-process schedd on a loopback port and the HTTP
// client that drives it.
type serveRig struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startServe starts schedd with its default options and waits for
// /readyz.
func startServe() (*serveRig, error) {
	srv, err := server.New(server.Options{CacheSize: resultCacheSize, PlanCacheSize: plan.DefaultCacheSize})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients(),
			MaxIdleConnsPerHost: serveClients(),
			DisableCompression:  true,
		}},
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	for t0 := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := r.client.Get(r.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			r.stop()
			return nil, fmt.Errorf("schedd not ready after 10s (last error: %v)", err)
		}
	}
}

// stop shuts the HTTP server and the engine down and waits for both.
func (r *serveRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
}

// served is one request of a window.
type served struct {
	idx    int // pool index
	lat    time.Duration
	engine time.Duration // X-Fastsched-Elapsed-Ms
	cache  string        // X-Fastsched-Cache
	bytes  int
	crc    uint32
	err    error
}

// serveWindow is the outcome of one closed-loop window.
type serveWindow struct {
	ops      []served
	loop     loopRun
	failures int            // transport errors and non-200 responses
	first    map[int][]byte // the first response body of each pool index
	tracers  []*tracer
}

// post sends one request, reading the response into buf. With a
// tracer, the round trip is recorded as a root span.
func (r *serveRig) post(rq request, buf *bytes.Buffer, tr *tracer, id int64) served {
	var rec served
	req, err := http.NewRequest(http.MethodPost, r.url+"/v1/schedule", bytes.NewReader(rq.body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.begin("http.schedule", -1, id)
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rec.lat = time.Since(t0)
	tr.end(sp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if err != nil {
		rec.err = err
		return rec
	}
	engineMS, _ := strconv.ParseFloat(resp.Header.Get("X-Fastsched-Elapsed-Ms"), 64)
	rec.engine = time.Duration(engineMS * float64(time.Millisecond))
	rec.cache = resp.Header.Get("X-Fastsched-Cache")
	rec.bytes = buf.Len()
	rec.crc = crc32.Checksum(buf.Bytes(), crcTable)
	if tr != nil {
		tr.spans[sp].engine, tr.spans[sp].cache = rec.engine, rec.cache
	}
	return rec
}

// window sends pool[(offset+i) % len(pool)] for i = 0, 1, ... from the
// closed-loop clients (see closedLoop for d, minOps, limit and
// sliceOps). With traced set, each request's round trip is recorded as
// a root span.
func (r *serveRig) window(pool []request, offset int, d time.Duration, minOps, limit, sliceOps int, traced bool) *serveWindow {
	clients := serveClients()
	ops := make([][]served, clients)
	firsts := make([]map[int][]byte, clients)
	bufs := make([]bytes.Buffer, clients)
	tracers := make([]*tracer, clients)
	epoch := time.Now()
	for c := range firsts {
		firsts[c] = map[int][]byte{}
		if traced {
			tracers[c] = newTracer(epoch)
		}
	}
	lr := closedLoop(clients, d, minOps, limit, sliceOps, func(c, i int) error {
		idx := (offset + i) % len(pool)
		rec := r.post(pool[idx], &bufs[c], tracers[c], int64(offset+i))
		rec.idx = idx
		ops[c] = append(ops[c], rec)
		if _, ok := firsts[c][idx]; !ok && rec.err == nil {
			firsts[c][idx] = bytes.Clone(bufs[c].Bytes())
		}
		return rec.err
	})
	w := &serveWindow{loop: lr, first: map[int][]byte{}}
	for c := range ops {
		w.ops = append(w.ops, ops[c]...)
		for idx, b := range firsts[c] {
			w.first[idx] = b
		}
		if traced {
			w.tracers = append(w.tracers, tracers[c])
		}
	}
	for _, op := range w.ops {
		if op.err != nil {
			w.failures++
		}
	}
	return w
}

// scheduleJSON is the schedd response payload.
type scheduleJSON struct {
	Algorithm  string  `json:"algorithm"`
	Makespan   float64 `json:"makespan"`
	ProcsUsed  int     `json:"procs_used"`
	Placements []struct {
		Node   int     `json:"node"`
		Proc   int     `json:"proc"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
	} `json:"placements"`
}

// checkResponse decodes a response body and validates it as a schedule
// of the request's graph on at most the requested processors.
func checkResponse(rq request, body []byte) (makespan float64, err error) {
	var out scheduleJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("response does not decode: %w", err)
	}
	g, err := rq.graph()
	if err != nil {
		return 0, err
	}
	v := g.NumNodes()
	if len(out.Placements) != v {
		return 0, fmt.Errorf("response places %d of %d nodes", len(out.Placements), v)
	}
	s := sched.New(v)
	for _, p := range out.Placements {
		if p.Node < 0 || p.Node >= v {
			return 0, fmt.Errorf("response places unknown node %d", p.Node)
		}
		s.Place(dag.NodeID(p.Node), p.Proc, p.Start, p.Finish)
	}
	if err := sched.Validate(g, s); err != nil {
		return 0, err
	}
	if s.Length() != out.Makespan || s.ProcsUsed() != out.ProcsUsed || out.ProcsUsed > rq.procs {
		return 0, fmt.Errorf("response reports makespan %v on %d procs, placements give %v on %d (limit %d)",
			out.Makespan, out.ProcsUsed, s.Length(), s.ProcsUsed(), rq.procs)
	}
	return out.Makespan, nil
}

// checkWindow validates one response per pool index, checks that every
// response to the same request is byte-identical, and returns the number
// of requests whose response failed either check.
func checkWindow(pool []request, w *serveWindow) (failed int, makespans map[int]float64) {
	idxs := make([]int, 0, len(w.first))
	for idx := range w.first {
		idxs = append(idxs, idx)
	}
	lengths := make([]float64, len(idxs))
	errs := make([]error, len(idxs))
	parallel(len(idxs), func(k int) error {
		lengths[k], errs[k] = checkResponse(pool[idxs[k]], w.first[idxs[k]])
		return nil
	})
	bad := map[int]bool{}
	makespans = map[int]float64{}
	for k, idx := range idxs {
		if errs[k] != nil {
			bad[idx] = true
			continue
		}
		makespans[idx] = lengths[k]
	}
	for _, op := range w.ops {
		if op.err != nil {
			continue
		}
		if bad[op.idx] || op.crc != crc32.Checksum(w.first[op.idx], crcTable) {
			failed++
		}
	}
	return failed, makespans
}

// quality schedules every request of sample with a direct FAST call and
// returns the geometric-mean ratio of makespan to lower bound over the
// sample. sample[i] is pool[i] for every served pool index i; a served
// makespan must equal the direct call's bit for bit, and mismatches
// counts those that do not.
func quality(sample []request, makespans map[int]float64) (ratio float64, mismatches, compared int, err error) {
	type outcome struct {
		ratio          float64
		compared, same bool
	}
	outs := make([]outcome, len(sample))
	err = parallel(len(sample), func(idx int) error {
		rq := sample[idx]
		g, err := rq.graph()
		if err != nil {
			return err
		}
		s, err := casch.NewScheduler("fast", rq.seed)
		if err != nil {
			return err
		}
		direct, err := s.Schedule(g, rq.procs)
		if err != nil {
			return err
		}
		// Unbounded procs skip the O(v³) Fernández term, which alone
		// would take most of a minute over the sample; the area bound is
		// added back by hand.
		lb, err := bounds.Compute(g, 0)
		if err != nil {
			return err
		}
		m, served := makespans[idx]
		if !served {
			m = direct.Length()
		}
		outs[idx] = outcome{m / math.Max(lb.Combined, g.TotalWork()/float64(rq.procs)), served, direct.Length() == m}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ratios := make([]float64, len(outs))
	for i, o := range outs {
		if o.compared {
			compared++
			if !o.same {
				mismatches++
			}
		}
		ratios[i] = o.ratio
	}
	return geomean(ratios), mismatches, compared, nil
}

// warm sends every request of warm once and fails on any error.
func (r *serveRig) warm(warm []request) error {
	for _, op := range r.window(warm, 0, 0, len(warm), len(warm), 0, false).ops {
		if op.err != nil {
			return fmt.Errorf("warm-up request %d: %w", op.idx, op.err)
		}
	}
	return nil
}

// poolFacts describes a request pool's sizes.
func poolFacts(r *result, name string, pool []request) {
	v, e, b := 0, 0, 0
	for _, rq := range pool {
		v += rq.tasks
		e += rq.edges
		b += len(rq.body)
	}
	r.fact("%s: %d requests, %d tasks, %d edges, %d body bytes", name, len(pool), v, e, b)
}

// runServe measures schedd on pool after warming it with warm, and
// computes makespan_over_lb over sample (see quality).
func runServe(cfg config, pool, warm, sample []request) (*result, error) {
	res := &result{}
	poolFacts(res, "pool", pool)
	poolFacts(res, "warm-up", warm)
	res.fact("schedd: result cache %d, plan cache %d, %d clients, closed loop", resultCacheSize, plan.DefaultCacheSize, serveClients())

	base := liveHeap()
	var rig *serveRig
	setups, err := timeSetups(cfg.setups, func() error {
		var err error
		if rig, err = startServe(); err != nil {
			return err
		}
		return rig.warm(warm)
	}, func() { rig.stop() })
	if err != nil {
		if rig != nil {
			rig.stop()
		}
		return nil, err
	}
	defer rig.stop()

	w := rig.window(pool, 0, cfg.window, cfg.minServed, 0, cfg.serveSlice, false)
	res.attempted = len(w.ops)
	failed, makespans := checkWindow(pool, w)
	res.failed = w.failures + failed
	q, mismatches, compared, err := quality(sample, makespans)
	if err != nil {
		return nil, err
	}
	res.attempted += compared
	res.failed += mismatches

	var lats []float64
	tasks := 0
	for _, op := range w.ops {
		if op.err == nil {
			lats = append(lats, ms(op.lat))
			tasks += pool[op.idx].tasks
		}
	}
	timingMetrics(res, setups, w.loop, lats, tasks)
	res.add("makespan_over_lb", q, "ratio", len(sample))
	res.fact("window: %d requests in slices of %d, %d distinct responses validated, %d served makespans compared with direct FAST, %d paper-mix requests in the quality sample",
		len(w.ops), cfg.serveSlice, len(makespans), compared, len(sample))
	// The window's response bodies are dead here and the pools, counted
	// in base, are kept alive, so the heap growth is the server's: its
	// caches and connections.
	res.add("heap_mb", heapMB(base), "MB", 1)
	runtime.KeepAlive(pool)
	runtime.KeepAlive(warm)
	runtime.KeepAlive(sample)
	return res, nil
}

func drawServe(cfg config, seed int64, n int) ([]request, error) {
	return drawRequests(cfg.serveMix, n, seed)
}

// runServeHot serves the first hotPool paper-mix requests of the seed.
// Its quality sample is the first quality requests, as serve-cold's is:
// 32 graphs alone spread makespan_over_lb by 3.5 % from seed to seed.
func runServeHot(cfg config, seed int64) (*result, error) {
	sample, err := drawServe(cfg, seed, cfg.quality)
	if err != nil {
		return nil, err
	}
	pool := sample[:cfg.hotPool]
	return runServe(cfg, pool, pool, sample)
}

// splitCold draws serve-cold's pool and its disjoint warm-up pool.
func splitCold(cfg config, seed int64, n int) (pool, warm []request, err error) {
	all, err := drawServe(cfg, seed, n+cfg.warmPool)
	if err != nil {
		return nil, nil, err
	}
	return all[:n], all[n:], nil
}

func runServeCold(cfg config, seed int64) (*result, error) {
	pool, warm, err := splitCold(cfg, seed, cfg.coldPool)
	if err != nil {
		return nil, err
	}
	return runServe(cfg, pool, warm, pool[:cfg.quality])
}

// serveOverhead warms a server, then sends requests from pool one at a
// time, untraced and traced in turn.
func serveOverhead(cfg config, pool, warm []request) (pair, []*tracer, error) {
	rig, err := startServe()
	if err != nil {
		return pair{}, nil, err
	}
	defer rig.stop()
	if err := rig.warm(warm); err != nil {
		return pair{}, nil, err
	}
	// The k-th untraced and the k-th traced request come from adjacent
	// blocks of mixKinds pool slots, so both halves see the same kinds.
	var buf bytes.Buffer
	n := 0
	p, tr, err := alternate(cfg.overheadRequests, func(tr *tracer) error {
		k := n / 2
		idx := k/mixKinds*2*mixKinds + k%mixKinds
		if tr != nil {
			idx += mixKinds
		}
		n++
		return rig.post(pool[idx%len(pool)], &buf, tr, int64(n)).err
	})
	return p, []*tracer{tr}, err
}

func overheadServeHot(cfg config, seed int64) (pair, []*tracer, error) {
	pool, err := drawServe(cfg, seed, cfg.hotPool)
	if err != nil {
		return pair{}, nil, err
	}
	return serveOverhead(cfg, pool, pool)
}

func overheadServeCold(cfg config, seed int64) (pair, []*tracer, error) {
	pool, warm, err := splitCold(cfg, seed, cfg.coldPool)
	if err != nil {
		return pair{}, nil, err
	}
	return serveOverhead(cfg, pool, warm)
}
