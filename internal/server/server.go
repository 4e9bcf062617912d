// Package server is the serving subsystem: rumor-initiator detection and
// MFC simulation as an HTTP service over the internal/trace wire format.
//
// Architecture: every compute endpoint routes through one bounded worker
// pool (sized to GOMAXPROCS) with a fixed-depth queue — a full queue sheds
// load with 429 + Retry-After instead of spawning unbounded goroutines.
// Per-request deadlines propagate via context.Context into the detector
// hot loops (core.ContextDetector), so a timed-out request stops burning
// CPU mid-solve. Built diffusion networks are LRU-cached by content hash
// (trace.NetworkHash), letting repeat queries on the same network skip
// edge validation and adjacency construction. An in-process registry
// tracks request counts, per-detector latency histograms, queue depth and
// cache hit rate, served as JSON on /metrics. Shutdown drains: in-flight
// HTTP requests finish, then queued jobs run to completion.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/profiling"
)

// Config parameterizes the server. The zero value serves on :8080 with
// GOMAXPROCS workers.
type Config struct {
	// Addr is the listen address; empty defaults to ":8080".
	Addr string
	// Workers is the worker-pool size; zero defaults to GOMAXPROCS.
	Workers int
	// QueueDepth is the job-queue capacity; zero defaults to 4×Workers.
	QueueDepth int
	// CacheSize is the graph-cache capacity; zero defaults to 64.
	CacheSize int
	// DefaultTimeout bounds each compute request; zero defaults to 30s.
	// A request's timeout_ms can tighten it but never extend it.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies; zero defaults to 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After value sent with 429s; zero defaults
	// to 1s.
	RetryAfter time.Duration
	// Parallelism is the per-request pipeline parallelism handed to the
	// detectors (core.RIDConfig.Parallelism): how many goroutines one
	// detection fans component extraction and per-tree inference across.
	// Zero means GOMAXPROCS. Distinct from Workers, which bounds how many
	// requests compute at once; total concurrency is roughly
	// Workers × Parallelism, so deployments co-tuning both typically set
	// Parallelism to 1 and scale Workers, or the reverse.
	Parallelism int
	// FlightSize is the flight recorder's capacity: the last FlightSize
	// completed compute requests (plus a smaller pinned ring of slow or
	// failed ones) are retained for /debug/requests. Zero defaults to
	// obs.DefaultFlightSize; negative disables the recorder.
	FlightSize int
	// SlowThreshold is the latency at or above which a request is pinned in
	// the flight recorder past normal eviction; zero defaults to
	// obs.DefaultSlowThreshold.
	SlowThreshold time.Duration
	// MaxSessions caps live ingest sessions (POST /v1/sessions); creating
	// past the cap answers 429 + Retry-After. Zero defaults to 64.
	MaxSessions int
	// SessionTTL is the idle lifetime of an ingest session: one untouched
	// for longer is evicted lazily. Zero defaults to 15 minutes.
	SessionTTL time.Duration
	// Snapshots, when non-nil, persists built networks as CSR snapshot
	// files keyed by content hash, letting restarts and replicas warm-load
	// graphs (zero-copy mmap) instead of rebuilding them from wire traces.
	// Constructed by the caller (NewSnapshotStore) so directory errors
	// surface at startup. Nil disables persistence.
	Snapshots *SnapshotStore
	// Profiler, when non-nil, is the continuous CPU profiler
	// (profiling.NewProfiler). The server takes ownership: New starts the
	// capture loop, Shutdown stops it, and its aggregates surface on
	// /debug/hotspots and /metrics. Nil disables continuous profiling; the
	// pprof label attribution is always on.
	Profiler *profiling.Profiler
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.FlightSize == 0 {
		c.FlightSize = obs.DefaultFlightSize
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = obs.DefaultSlowThreshold
	}
	return c
}

// Server is the detection service. Create one with New, serve with
// ListenAndServe (or mount Handler in a test server), stop with Shutdown.
type Server struct {
	cfg       Config
	pool      *Pool
	cache     *GraphCache
	snapshots *SnapshotStore
	reg       *Registry
	flight    *obs.FlightRecorder
	sessions  *ingest.Manager
	profiler  *profiling.Profiler
	mux       *http.ServeMux
	http      *http.Server
}

// New wires a server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      NewPool(cfg.Workers, cfg.QueueDepth),
		cache:     NewGraphCache(cfg.CacheSize),
		snapshots: cfg.Snapshots,
		reg:       NewRegistry(),
		sessions:  ingest.NewManager(ingest.ManagerConfig{MaxSessions: cfg.MaxSessions, TTL: cfg.SessionTTL}),
		profiler:  cfg.Profiler,
		mux:       http.NewServeMux(),
	}
	if cfg.FlightSize > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightSize, cfg.SlowThreshold)
	}
	s.profiler.Start()
	s.mux.HandleFunc("POST /v1/detect", s.instrument("detect", s.handleDetect))
	s.mux.HandleFunc("POST /v1/detect/batch", s.instrument("detect_batch", s.handleDetectBatch))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("session_create", s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.instrument("session_events", s.handleSessionEvents))
	s.mux.HandleFunc("GET /v1/sessions/{id}/detect", s.instrument("session_detect", s.handleSessionDetect))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("session_delete", s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/requests", s.instrument("debug_requests", s.handleDebugRequests))
	s.mux.HandleFunc("GET /debug/hotspots", s.instrument("debug_hotspots", s.handleDebugHotspots))
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler exposes the route table (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// DebugHandler returns the package-level profiling mux (net/http/pprof,
// expvar) extended with this server's flight-recorder view at
// /debug/requests, so a deployment running a separate debug listener
// (-debug-addr) gets request introspection there too. The view is also on
// the service mux — unlike pprof, it only exposes request metadata.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", DebugHandler())
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/hotspots", s.handleDebugHotspots)
	return mux
}

// ListenAndServe blocks serving on the configured address until Shutdown.
func (s *Server) ListenAndServe() error {
	err := s.http.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server: stop accepting connections, wait for
// in-flight requests up to ctx's deadline, let the worker pool finish
// every queued job, then stop the profiler.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	s.profiler.Stop()
	return err
}

// statusRecorder captures the response status for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with request counting, route latency, W3C
// trace-context propagation (inbound traceparent honored, the response
// carries this hop's traceparent), and a structured access log. The trace
// id travels via ctx, so the flight record, log lines and exemplars of one
// request all carry it.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc := inboundTrace(r)
		ctx := obs.WithTraceID(r.Context(), tc.TraceID)
		// The header goes out before the handler writes: the caller gets
		// this hop's span id as its parent for any follow-up.
		w.Header().Set("traceparent", tc.Traceparent())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// The whole handler — JSON decode and encode included, not just the
		// pooled compute — runs under the route pprof label, so nearly every
		// CPU sample a request costs is attributable to its route.
		profiling.Do(ctx, func(ctx context.Context) {
			h(rec, r.WithContext(ctx))
		}, profiling.LabelRoute, route)
		elapsed := time.Since(start)
		s.reg.CountRequest(route, rec.status)
		s.reg.ObserveExemplar("route."+route, elapsed, tc.TraceID)
		slog.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("trace_id", tc.TraceID),
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed))
	}
}

// recordFlight publishes a flight record, first stamping it with the
// continuous-profiler window (if any) that overlapped the request, so a
// slow entry in /debug/requests links straight to the CPU breakdown in
// /debug/hotspots captured while it ran.
func (s *Server) recordFlight(fr obs.FlightRecord) {
	end := fr.Start.Add(time.Duration(fr.ElapsedMS * float64(time.Millisecond)))
	if seq, ok := s.profiler.WindowFor(fr.Start, end); ok {
		fr.ProfileWindow = seq
	}
	s.flight.Record(fr)
}

// inboundTrace resolves the request's trace context: a W3C traceparent,
// or else a freshly minted root. In every case this process mints its own
// span id; the trace id and flags pass through unchanged.
func inboundTrace(r *http.Request) obs.TraceContext {
	tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		tc = obs.NewTraceContext()
	}
	tc.SpanID = obs.NewSpanID()
	return tc
}

// poolResult is what a pooled job hands back to its waiting handler.
type poolResult struct {
	value any
	err   error
}

// drainGrace is how long runPooled waits for a running job to observe its
// cancelled context and hand back a result before answering with a bare
// timeout error. The detector hot loops poll the context every few
// thousand iterations, so a well-behaved job returns within microseconds;
// the grace exists so handlers that deliver partial results on deadline
// (the batch path) reach the client instead of a generic 504.
const drainGrace = 500 * time.Millisecond

// runPooled executes fn on the worker pool under the request deadline and
// writes the outcome. A full queue is answered immediately with 429 +
// Retry-After. A deadline that expires while the job is still queued is
// answered with 504; one that expires while the job is running gives fn a
// short grace to return a result of its own (a ctx error for single
// detects — still a 504 — or a partial batch response), and the context
// handed to fn aborts the underlying solve so the worker frees up
// promptly either way.
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, timeoutMS int, fn func(context.Context) (any, error)) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	done := make(chan poolResult, 1)
	var started atomic.Bool
	accepted := s.pool.TrySubmit(func() {
		// The client may be gone by the time this job is dequeued; the
		// cancelled context makes fn return immediately in that case.
		started.Store(true)
		// Pool goroutines are long-lived, so the handler goroutine's pprof
		// labels don't reach them by inheritance; re-apply the request's
		// label set (carried in ctx) for the job's duration.
		var v any
		var err error
		profiling.Do(ctx, func(ctx context.Context) {
			v, err = fn(ctx)
		})
		done <- poolResult{value: v, err: err}
	})
	if !accepted {
		s.reg.CountRejected()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "queue full; retry later"})
		return
	}
	select {
	case res := <-done:
		writePoolResult(w, res)
	case <-ctx.Done():
		if started.Load() {
			select {
			case res := <-done:
				writePoolResult(w, res)
				return
			case <-time.After(drainGrace):
			}
		}
		writeError(w, ctx.Err())
	}
}

func writePoolResult(w http.ResponseWriter, res poolResult) {
	if res.err != nil {
		writeError(w, res.err)
		return
	}
	writeJSON(w, http.StatusOK, res.value)
}
