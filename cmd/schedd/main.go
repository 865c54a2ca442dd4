// Command schedd is the long-running scheduling service: the
// internal/batch engine behind a crash-tolerant HTTP JSON API.
//
// Usage:
//
//	schedd -addr :8080 [-workers 0] [-queue 256] \
//	       [-snapshot /var/lib/fastsched/snap] [-snapshot-every 30s] \
//	       [-quota-rate 50] [-quota-burst 100] [-quota-weights gold=3,bronze=1] \
//	       [-max-body 8388608] [-max-jobs 4096] [-drain-timeout 30s]
//
// Endpoints:
//
//	POST /v1/schedule          schedule synchronously
//	POST /v1/jobs              schedule asynchronously (202 + job id)
//	GET  /v1/jobs/{id}         poll a job
//	GET  /v1/jobs/{id}/stream  SSE-style stream of the job's result
//	GET  /healthz /readyz /metrics
//
// On SIGINT/SIGTERM the daemon drains gracefully: admission stops
// (503 + Retry-After, /readyz flips), every admitted request finishes,
// a final snapshot is cut, and the process exits 0. With -snapshot the
// next start restores the result and plan caches from that file, so a
// restarted daemon answers repeated requests from cache without
// recompiling plans; a corrupt snapshot is quarantined and the daemon
// starts cold rather than crashing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fastsched/internal/server"
)

// options carries every flag of the schedd command.
type options struct {
	addr          string
	workers       int
	queue         int
	cacheSize     int
	planCacheSize int
	snapshot      string
	snapshotEvery time.Duration
	quotaRate     float64
	quotaBurst    float64
	quotaWeights  string
	maxBody       int64
	maxJobs       int
	drainTimeout  time.Duration
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "scheduling workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "submission queue depth (0 = engine default)")
	fs.IntVar(&o.cacheSize, "cache", 0, "result cache and body index entries (0 = engine default, negative disables both)")
	fs.IntVar(&o.planCacheSize, "plan-cache", 0, "compiled-plan cache entries (0 = engine default, negative disables it)")
	fs.StringVar(&o.snapshot, "snapshot", "", "warm-restart snapshot path (empty disables persistence)")
	fs.DurationVar(&o.snapshotEvery, "snapshot-every", 30*time.Second, "periodic snapshot interval (with -snapshot)")
	fs.Float64Var(&o.quotaRate, "quota-rate", 0, "per-tenant admission rate, requests/s per weight (0 disables quotas)")
	fs.Float64Var(&o.quotaBurst, "quota-burst", 0, "per-tenant burst capacity per weight (0 = max(rate,1))")
	fs.StringVar(&o.quotaWeights, "quota-weights", "", "tenant weights as name=w,name=w (unlisted tenants weigh 1)")
	fs.Int64Var(&o.maxBody, "max-body", 8<<20, "request body size limit in bytes")
	fs.IntVar(&o.maxJobs, "max-jobs", 0, "async job table capacity (0 = default 4096)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "bound on graceful drain at shutdown")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

// parseWeights parses "gold=3,bronze=1" into a weight map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad weight %q (want name=value)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q: value must be a positive number", pair)
		}
		out[name] = w
	}
	return out, nil
}

// run is the daemon body, factored so tests can drive it end to end:
// ready receives the bound address once the listener is up, and stop
// triggers the same graceful drain a signal does.
func run(o options, logger *log.Logger, ready chan<- net.Addr, stop <-chan os.Signal) error {
	weights, err := parseWeights(o.quotaWeights)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Options{
		Workers:       o.workers,
		QueueDepth:    o.queue,
		CacheSize:     o.cacheSize,
		PlanCacheSize: o.planCacheSize,
		Quota:         server.QuotaConfig{Rate: o.quotaRate, Burst: o.quotaBurst, Weights: weights},
		MaxBodyBytes:  o.maxBody,
		MaxJobs:       o.maxJobs,
		SnapshotPath:  o.snapshot,
		SnapshotEvery: o.snapshotEvery,
	})
	if err != nil {
		return err
	}
	if rs := srv.Restored(); rs.Quarantined != "" {
		logger.Printf("corrupt snapshot quarantined to %s; starting cold", rs.Quarantined)
	} else if rs.Results > 0 || rs.Plans > 0 {
		logger.Printf("warm restart: restored %d cached results, %d compiled plans", rs.Results, rs.Plans)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("schedd listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case sig := <-stop:
		logger.Printf("received %v; draining", sig)
	case err := <-serveErr:
		srv.Close()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Drain first (stop admission, flush work, cut the final snapshot),
	// then shut the HTTP listener down; requests racing the drain get
	// typed 503s instead of connection resets.
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained; bye")
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "schedd: ", log.LstdFlags)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(o, logger, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}
