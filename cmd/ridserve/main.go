// Command ridserve serves rumor-initiator detection and MFC simulation
// over HTTP: POST a wire-format trace (internal/trace JSON, as written by
// ridlab -save-trace) to /v1/detect and get ranked initiators with scores;
// POST a network plus seeds to /v1/simulate to run a cascade; GET /metrics
// for request counts, per-detector latency histograms, queue depth and
// graph-cache hit rate; GET /healthz for liveness.
//
// The session API streams a cascade instead of re-POSTing it: POST
// /v1/sessions opens an event-sourced session over a network (inline
// trace or a cached graph_hash), POST /v1/sessions/{id}/events appends
// activation-link events, and GET /v1/sessions/{id}/detect answers with
// initiators bit-identical to a one-shot /v1/detect on the equivalent
// snapshot while re-solving only the infected components the new events
// touched. Sessions are bounded (-max-sessions; exceeding answers 429)
// and evicted after an idle TTL (-session-ttl).
//
// Batching: POST /v1/detect/batch solves many observed snapshots ("items",
// observation-only payloads) against one network — supplied inline or as a
// cached graph_hash — paying graph resolution, detector construction and
// response encoding once, with per-item error isolation and per-item
// algorithm counters. /v1/detect also accepts the compact binary trace
// codec (Content-Type application/x-rid-trace, detector options in the
// query string) next to JSON. -snapshot-dir persists every built network
// as a flat CSR snapshot file keyed by content hash; a restarted process
// (or a replica sharing the directory) warm-loads graphs as zero-copy mmap
// views instead of re-validating and re-sorting wire traces.
//
// The server runs a bounded worker pool (default GOMAXPROCS workers) with
// a fixed-depth queue — saturation answers 429 with Retry-After instead of
// queueing without bound — and every request carries a deadline that
// propagates into the detector loops. Repeat queries over the same network
// skip graph construction via a content-addressed LRU cache. SIGINT or
// SIGTERM triggers a graceful drain.
//
// Observability: /metrics serves JSON by default and the Prometheus text
// format with ?format=prometheus, including algorithm-depth counters,
// session gauges and Go runtime health. Requests are access-logged via
// slog (-log-level, -log-format) under a W3C trace context: an inbound
// traceparent header's trace id and flags are kept, a request without one
// (or with a malformed one) starts a fresh trace, and the response carries
// this hop's traceparent. The flight recorder is the one per-request
// record: it keeps each compute request's trace id, route, stage timings
// and algorithm counters. It retains the last -flight completed compute
// requests (slow or failed ones pinned past eviction; -slow sets the
// threshold) and serves them on /debug/requests as an HTML table with
// per-request drill-down, or JSON with ?format=json; the list filters with
// ?route=, ?model= and ?min_ms=.
// -profile-interval turns on the continuous profiler: a short CPU profile
// window is captured every interval (-profile-window sets its length,
// default interval/50 capped at 10s), decoded in-process, and folded into
// per-label aggregates — every request runs under pprof labels
// (route/model/stage/batch), so /debug/hotspots shows CPU time per label
// tuple with the top functions and deltas between windows, /metrics
// carries lifetime CPU-seconds by label, and ?format=openmetrics serves
// the OpenMetrics exposition with trace-id exemplars on latency buckets.
// -debug-addr starts a second listener with net/http/pprof, expvar and
// the same /debug views — keep it off public interfaces.
//
// Usage:
//
//	ridserve [-addr :8080] [-workers 0] [-queue 0] [-cache 64]
//	         [-parallelism 0] [-timeout 30s] [-drain 15s] [-max-body-mb 32]
//	         [-flight 128] [-slow 1s] [-max-sessions 64] [-session-ttl 15m]
//	         [-snapshot-dir dir]
//	         [-profile-interval 0] [-profile-window 0]
//	         [-log-level info] [-log-format text] [-debug-addr addr]
//
// -workers bounds how many requests compute at once; -parallelism bounds
// how many goroutines ONE detection fans out across (component extraction
// and per-tree DP; 0 = GOMAXPROCS). Results are bit-identical at every
// -parallelism setting. Total compute concurrency is roughly their
// product, so co-tune the two for the deployment's traffic shape.
//
// Example:
//
//	ridserve &
//	ridlab -save-trace t.json
//	curl -s -X POST localhost:8080/v1/detect \
//	     -d "{\"trace\": $(cat t.json), \"detector\": \"rid\", \"beta\": 0.3}"
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/profiling"
	"repro/internal/server"
)

// options collects every flag so validate/run stay readable as the flag
// surface grows.
type options struct {
	addr         string
	workers      int
	queue        int
	cacheSize    int
	parallel     int
	timeout      time.Duration
	drain        time.Duration
	maxBodyMB    int64
	flight       int
	slow         time.Duration
	debugAddr    string
	maxSess      int
	sessTTL      time.Duration
	snapshotDir  string
	profInterval time.Duration
	profWindow   time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "job-queue depth (0 = 4x workers)")
	flag.IntVar(&o.cacheSize, "cache", 64, "graph-cache capacity (networks)")
	flag.IntVar(&o.parallel, "parallelism", 0, "per-detection pipeline parallelism (0 = GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline ceiling")
	flag.DurationVar(&o.drain, "drain", 15*time.Second, "graceful-shutdown drain budget")
	flag.Int64Var(&o.maxBodyMB, "max-body-mb", 32, "request body cap in MiB")
	flag.IntVar(&o.flight, "flight", 0, "flight-recorder capacity in requests (0 = default 128, -1 = disabled)")
	flag.DurationVar(&o.slow, "slow", 0, "latency at which requests pin in the flight recorder (0 = default 1s)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "pprof/expvar/flight-recorder listen address (empty = disabled)")
	flag.IntVar(&o.maxSess, "max-sessions", 64, "live ingest-session cap (exceeding answers 429)")
	flag.DurationVar(&o.sessTTL, "session-ttl", 15*time.Minute, "idle lifetime of an ingest session")
	flag.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory persisting built networks as CSR snapshot files for warm restarts (empty = disabled)")
	flag.DurationVar(&o.profInterval, "profile-interval", 0, "continuous-profiler duty cycle: capture one CPU window every interval (0 = profiler off)")
	flag.DurationVar(&o.profWindow, "profile-window", 0, "CPU capture window length (0 = interval/50, at most 10s)")
	logCfg := cli.LogFlags()
	flag.Parse()
	cli.NoPositionalArgs("ridserve")
	if err := logCfg.Setup(); err != nil {
		cli.Fatal("ridserve", err)
	}
	if err := validate(&o); err != nil {
		cli.Fatal("ridserve", err)
	}
	if err := run(&o); err != nil {
		cli.Fatal("ridserve", err)
	}
}

func validate(o *options) error {
	switch {
	case o.workers < 0:
		return cli.Usagef("-workers must be non-negative, got %d", o.workers)
	case o.parallel < 0:
		return cli.Usagef("-parallelism must be non-negative, got %d", o.parallel)
	case o.queue < 0:
		return cli.Usagef("-queue must be non-negative, got %d", o.queue)
	case o.cacheSize < 1:
		return cli.Usagef("-cache must be positive, got %d", o.cacheSize)
	case o.timeout <= 0:
		return cli.Usagef("-timeout must be positive, got %v", o.timeout)
	case o.drain <= 0:
		return cli.Usagef("-drain must be positive, got %v", o.drain)
	case o.maxBodyMB < 1:
		return cli.Usagef("-max-body-mb must be positive, got %d", o.maxBodyMB)
	case o.slow < 0:
		return cli.Usagef("-slow must be non-negative, got %v", o.slow)
	case o.maxSess < 1:
		return cli.Usagef("-max-sessions must be positive, got %d", o.maxSess)
	case o.sessTTL <= 0:
		return cli.Usagef("-session-ttl must be positive, got %v", o.sessTTL)
	case o.profInterval < 0:
		return cli.Usagef("-profile-interval must be non-negative, got %v", o.profInterval)
	case o.profWindow < 0:
		return cli.Usagef("-profile-window must be non-negative, got %v", o.profWindow)
	case o.profWindow > 0 && o.profInterval == 0:
		return cli.Usagef("-profile-window requires -profile-interval")
	}
	return nil
}

func run(o *options) error {
	snapshots, err := server.NewSnapshotStore(o.snapshotDir)
	if err != nil {
		return err
	}
	s := server.New(server.Config{
		Addr:           o.addr,
		Workers:        o.workers,
		QueueDepth:     o.queue,
		CacheSize:      o.cacheSize,
		DefaultTimeout: o.timeout,
		MaxBodyBytes:   o.maxBodyMB << 20,
		Parallelism:    o.parallel,
		FlightSize:     o.flight,
		SlowThreshold:  o.slow,
		MaxSessions:    o.maxSess,
		SessionTTL:     o.sessTTL,
		Snapshots:      snapshots,
		Profiler:       profiling.NewProfiler(profiling.Config{Interval: o.profInterval, Window: o.profWindow}),
	})
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()
	slog.Info("ridserve: listening", "addr", o.addr)

	if o.debugAddr != "" {
		debug := &http.Server{Addr: o.debugAddr, Handler: s.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			slog.Info("ridserve: debug endpoints up", "addr", o.debugAddr)
			if err := debug.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				// Profiling is auxiliary: losing it should not take the
				// service down, but it must be visible.
				slog.Error("ridserve: debug listener failed", "addr", o.debugAddr, "err", err)
			}
		}()
		defer debug.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		slog.Info("ridserve: draining", "signal", got.String(), "budget", o.drain)
		ctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		return s.Shutdown(ctx)
	}
}
