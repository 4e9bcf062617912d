package server

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// latency histogram buckets; observations above the last bound land in the
// implicit +Inf bucket.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Exemplar pins a bucket's most recent traced observation to the trace
// that produced it, OpenMetrics-style: a burn rate seen in a histogram
// clicks through to an exported span.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	ValueMS float64 `json:"value_ms"`
	// TS is the observation time in unix seconds (OpenMetrics exemplar
	// timestamps are float seconds).
	TS float64 `json:"timestamp"`
}

// Histogram is a fixed-bucket latency histogram. Not safe for concurrent
// use on its own; the Registry serializes access.
type Histogram struct {
	Count   int64   `json:"count"`
	SumMS   float64 `json:"sum_ms"`
	MaxMS   float64 `json:"max_ms"`
	Buckets []int64 `json:"buckets"` // cumulative counts per latencyBucketsMS bound, +Inf last
	// exemplars holds per-bucket latest exemplars (non-cumulative: index i
	// is the bucket whose upper bound is latencyBucketsMS[i], +Inf last).
	// Nil until the first exemplar-bearing observation.
	exemplars []Exemplar
}

func newHistogram() *Histogram {
	return &Histogram{Buckets: make([]int64, len(latencyBucketsMS)+1)}
}

func (h *Histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.Count++
	h.SumMS += ms
	if ms > h.MaxMS {
		h.MaxMS = ms
	}
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	for ; i < len(h.Buckets); i++ {
		h.Buckets[i]++
	}
}

// observeExemplar is observe plus an exemplar on the one (non-cumulative)
// bucket the value falls in, replacing that bucket's previous exemplar.
func (h *Histogram) observeExemplar(d time.Duration, traceID string, now time.Time) {
	h.observe(d)
	if traceID == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(latencyBucketsMS)+1)
	}
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.exemplars[i] = Exemplar{TraceID: traceID, ValueMS: ms, TS: float64(now.UnixNano()) / 1e9}
}

// MeanMS returns the mean observed latency in milliseconds.
func (h *Histogram) MeanMS() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumMS / float64(h.Count)
}

// Registry is the server's in-process metrics store: request counts per
// route and status, latency histograms per operation label (routes and
// detector names), queue rejections and cache hit/miss counters. Gauges
// that live elsewhere (queue depth, cache size) are sampled at snapshot
// time via callbacks registered by the server.
type Registry struct {
	mu       sync.Mutex
	start    time.Time
	build    BuildInfo
	requests map[string]map[int]int64
	latency  map[string]*Histogram
	algo     obs.CounterSet
	rejected int64
	hits     int64
	misses   int64
}

// NewRegistry returns an empty registry with the uptime clock started and
// the build info captured.
func NewRegistry() *Registry {
	return &Registry{
		start: time.Now(),
		build: BuildInfo{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		requests: make(map[string]map[int]int64),
		latency:  make(map[string]*Histogram),
	}
}

// CountRequest records one request on a route with its response status.
func (r *Registry) CountRequest(route string, status int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byStatus := r.requests[route]
	if byStatus == nil {
		byStatus = make(map[int]int64)
		r.requests[route] = byStatus
	}
	byStatus[status]++
}

// Observe records a latency observation under a label.
func (r *Registry) Observe(label string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.latency[label]
	if h == nil {
		h = newHistogram()
		r.latency[label] = h
	}
	h.observe(d)
}

// ObserveExemplar is Observe plus a trace-id exemplar on the bucket the
// observation lands in, surfaced by the OpenMetrics exposition. An empty
// traceID degrades to a plain observation.
func (r *Registry) ObserveExemplar(label string, d time.Duration, traceID string) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.latency[label]
	if h == nil {
		h = newHistogram()
		r.latency[label] = h
	}
	h.observeExemplar(d, traceID, now)
}

// CountRejected records one request shed by queue backpressure.
func (r *Registry) CountRejected() {
	r.mu.Lock()
	r.rejected++
	r.mu.Unlock()
}

// CountCache records one graph-cache lookup.
func (r *Registry) CountCache(hit bool) {
	r.mu.Lock()
	if hit {
		r.hits++
	} else {
		r.misses++
	}
	r.mu.Unlock()
}

// MergeRecorder folds one request's pipeline recorder into the registry:
// each stage's per-request total becomes an observation on the
// "stage.<name>" latency histogram (so /metrics carries per-stage
// distributions across requests), and the typed counters accumulate.
func (r *Registry) MergeRecorder(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	for name, st := range rec.Stages() {
		r.Observe(stagePrefix+name, st.Total)
	}
	cs := rec.CounterSetSnapshot()
	r.mu.Lock()
	r.algo.Merge(cs)
	r.mu.Unlock()
}

// stagePrefix marks latency labels that hold pipeline-stage histograms
// rather than route/detector latencies.
const stagePrefix = "stage."

// HistogramSnapshot is one labelled latency histogram in a Snapshot.
type HistogramSnapshot struct {
	Count    int64     `json:"count"`
	MeanMS   float64   `json:"mean_ms"`
	MaxMS    float64   `json:"max_ms"`
	SumMS    float64   `json:"sum_ms"`
	Buckets  []int64   `json:"buckets"`
	BoundsMS []float64 `json:"bounds_ms"`
	// Exemplars align with Buckets (non-cumulative); entries with an empty
	// TraceID mean that bucket has seen no traced observation. Omitted for
	// histograms that never recorded an exemplar.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// QueueSnapshot reports worker-pool state.
type QueueSnapshot struct {
	Depth    int   `json:"depth"`
	Capacity int   `json:"capacity"`
	Workers  int   `json:"workers"`
	Rejected int64 `json:"rejected"`
}

// CacheSnapshot reports graph-cache state.
type CacheSnapshot struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
}

// BuildInfo identifies the serving binary's runtime environment.
// GOMAXPROCS and NumCPU make the effective parallelism of the replica
// visible in every scrape (the single-core-container caveat in the
// committed bench numbers), GOOS/GOARCH place it in the fleet.
type BuildInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"go_os"`
	GOARCH     string `json:"go_arch"`
}

// Snapshot is the JSON document served on /metrics. UptimeS predates
// UptimeSeconds and is kept for wire compatibility; both carry the same
// value.
type Snapshot struct {
	UptimeS       float64                       `json:"uptime_s"`
	UptimeSeconds float64                       `json:"uptime_seconds"`
	Build         BuildInfo                     `json:"build_info"`
	Requests      map[string]map[string]int64   `json:"requests"`
	LatencyMS     map[string]*HistogramSnapshot `json:"latency_ms"`
	Queue         QueueSnapshot                 `json:"queue"`
	Cache         CacheSnapshot                 `json:"cache"`
	// Algo accumulates the typed algorithm-depth counters (arborescence
	// kernel operations, forest shape histograms, per-tree DP modes,
	// diffusion work) across every served request. Omitted until the first
	// request that counted anything.
	Algo *obs.CounterSet `json:"algo,omitempty"`
	// Runtime is the Go runtime health sample (goroutines, heap, GC pause
	// and scheduler-latency quantiles) taken at snapshot time.
	Runtime *obs.RuntimeStats `json:"runtime,omitempty"`
	// Sessions reports ingest-session table pressure (active count plus
	// cumulative evictions and capacity rejections). Populated by the
	// /metrics handler, which owns the session manager.
	Sessions *ingest.ManagerStats `json:"sessions,omitempty"`
	// Profiling reports the continuous profiler's lifetime aggregates:
	// window counters and CPU seconds attributed per route/model/stage
	// pprof label. Populated by the /metrics handler; Enabled is false
	// when the profiler is off.
	Profiling *ProfilingSnapshot `json:"profiling,omitempty"`
}

// ProfilingSnapshot is the /metrics view of the continuous profiler.
type ProfilingSnapshot struct {
	Enabled         bool    `json:"enabled"`
	IntervalMS      float64 `json:"interval_ms,omitempty"`
	WindowMS        float64 `json:"window_ms,omitempty"`
	WindowsCaptured uint64  `json:"windows_captured"`
	WindowsSkipped  uint64  `json:"windows_skipped"`
	DecodeErrors    uint64  `json:"decode_errors"`
	// CPUSecondsTotal is CPU time observed across all captured windows;
	// AttributedRatio is the fraction of it carrying at least one
	// non-empty route/model/stage/batch label.
	CPUSecondsTotal float64 `json:"cpu_seconds_total"`
	AttributedRatio float64 `json:"attributed_ratio"`
	// Per-dimension CPU seconds, from lifetime label aggregates.
	CPUSecondsByRoute map[string]float64 `json:"cpu_seconds_by_route,omitempty"`
	CPUSecondsByModel map[string]float64 `json:"cpu_seconds_by_model,omitempty"`
	CPUSecondsByStage map[string]float64 `json:"cpu_seconds_by_stage,omitempty"`
}

// Snapshot captures the registry contents plus the supplied live gauges
// and a fresh runtime/metrics sample.
func (r *Registry) Snapshot(queue QueueSnapshot, cacheSize, cacheCap int) *Snapshot {
	rt := obs.ReadRuntimeStats() // sampled outside the lock; it never fails
	r.mu.Lock()
	defer r.mu.Unlock()
	uptime := time.Since(r.start).Seconds()
	s := &Snapshot{
		UptimeS:       uptime,
		UptimeSeconds: uptime,
		Build:         r.build,
		Requests:      make(map[string]map[string]int64, len(r.requests)),
		LatencyMS:     make(map[string]*HistogramSnapshot, len(r.latency)),
	}
	s.Runtime = &rt
	if !r.algo.Zero() {
		cp := r.algo
		s.Algo = &cp
	}
	for route, byStatus := range r.requests {
		m := make(map[string]int64, len(byStatus))
		for status, n := range byStatus {
			m[statusKey(status)] = n
		}
		s.Requests[route] = m
	}
	for label, h := range r.latency {
		hs := &HistogramSnapshot{
			Count:    h.Count,
			MeanMS:   h.MeanMS(),
			MaxMS:    h.MaxMS,
			SumMS:    h.SumMS,
			Buckets:  append([]int64(nil), h.Buckets...),
			BoundsMS: latencyBucketsMS,
		}
		if h.exemplars != nil {
			hs.Exemplars = append([]Exemplar(nil), h.exemplars...)
		}
		s.LatencyMS[label] = hs
	}
	queue.Rejected = r.rejected
	s.Queue = queue
	s.Cache = CacheSnapshot{Hits: r.hits, Misses: r.misses, Size: cacheSize, Capacity: cacheCap}
	if total := r.hits + r.misses; total > 0 {
		s.Cache.HitRate = float64(r.hits) / float64(total)
	}
	return s
}

func statusKey(status int) string {
	// Small, allocation-free itoa for the handful of HTTP statuses we emit.
	if status < 100 || status > 999 {
		return "other"
	}
	buf := [3]byte{byte('0' + status/100), byte('0' + status/10%10), byte('0' + status%10)}
	return string(buf[:])
}
