package obs

import (
	"sort"
	"sync"
	"time"
)

// FlightRecord is one completed detection (or simulation) as retained by
// the FlightRecorder: identity, outcome, the full per-stage span aggregate
// and the typed algorithm counters. Records are immutable once published.
type FlightRecord struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based);
	// newest records have the highest Seq.
	Seq uint64 `json:"seq"`
	// TraceID correlates with access logs and the traceparent header.
	TraceID string `json:"trace_id"`
	// Route is the serving endpoint (e.g. "/detect"); Detail free-form
	// request context (detector name, graph source).
	Route  string `json:"route"`
	Detail string `json:"detail,omitempty"`
	// Start is the wall-clock request start; ElapsedMS the end-to-end
	// latency in milliseconds.
	Start     time.Time `json:"start"`
	ElapsedMS float64   `json:"elapsed_ms"`
	// Status is the HTTP status served; Error the pipeline error text when
	// the request failed.
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// Pinned marks records held past normal eviction (slow or failed).
	Pinned bool `json:"pinned"`
	// ProfileWindow is the sequence number of the continuous-profiler CPU
	// window overlapping this request, when one exists — it keys into
	// /debug/hotspots so a slow request links to the CPU breakdown captured
	// while it ran. Zero when profiling is off or no window covered it.
	ProfileWindow uint64 `json:"profile_window,omitempty"`
	// Stages is the span tree (disjoint stage aggregates) of the request;
	// Algo the typed algorithm-depth counters (nil when nothing was
	// counted).
	Stages map[string]StageView `json:"stages,omitempty"`
	Algo   *CounterSet          `json:"algo_counters,omitempty"`
}

// FlightRecorder retains the last N completed requests in a ring buffer,
// with slow and failed requests routed to a separate, smaller pinned ring
// so they survive eviction by fast successes. Record is called once per
// request — well off any hot loop — so a single mutex is cheap; Snapshot
// copies out under the same lock, making concurrent record-vs-render safe.
// All methods no-op on a nil receiver, so serving paths thread an optional
// recorder without guards.
type FlightRecorder struct {
	mu     sync.Mutex
	seq    uint64
	slow   time.Duration
	recent ring
	pinned ring
}

// ring is a fixed-capacity circular buffer of records, newest overwriting
// oldest.
type ring struct {
	buf  []FlightRecord
	next int // index the next record lands on
	n    int // live records (≤ len(buf))
}

func (r *ring) add(fr FlightRecord) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = fr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring) appendTo(out []FlightRecord) []FlightRecord {
	for i := 0; i < r.n; i++ {
		// Walk backward from the newest so out is newest-first per ring.
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// DefaultFlightSize is the recent-ring capacity used when size ≤ 0.
const DefaultFlightSize = 128

// DefaultSlowThreshold pins requests at or above this latency when no
// threshold is configured.
const DefaultSlowThreshold = time.Second

// NewFlightRecorder returns a recorder retaining the last size completed
// requests plus up to max(8, size/4) pinned (slow or failed) ones.
// Requests at or above slow are pinned; slow ≤ 0 selects
// DefaultSlowThreshold.
func NewFlightRecorder(size int, slow time.Duration) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	pinned := size / 4
	if pinned < 8 {
		pinned = 8
	}
	return &FlightRecorder{
		slow:   slow,
		recent: ring{buf: make([]FlightRecord, size)},
		pinned: ring{buf: make([]FlightRecord, pinned)},
	}
}

// SlowThreshold returns the pin latency threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.slow
}

// Record publishes one completed request. The record is routed to exactly
// one ring: pinned when it failed (Error set or Status ≥ 400) or ran at or
// past the slow threshold, recent otherwise. Seq and Pinned are assigned
// here. No-op on a nil recorder.
func (f *FlightRecorder) Record(fr FlightRecord) {
	if f == nil {
		return
	}
	pin := fr.Error != "" || fr.Status >= 400 ||
		fr.ElapsedMS >= float64(f.slow)/float64(time.Millisecond)
	fr.Pinned = pin
	f.mu.Lock()
	f.seq++
	fr.Seq = f.seq
	if pin {
		f.pinned.add(fr)
	} else {
		f.recent.add(fr)
	}
	f.mu.Unlock()
}

// Snapshot returns the retained records newest-first (pinned and recent
// interleaved by sequence). Nil-safe, returning nil on a nil recorder.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]FlightRecord, 0, f.recent.n+f.pinned.n)
	out = f.recent.appendTo(out)
	out = f.pinned.appendTo(out)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Lookup returns the retained record with the trace ID, preferring the
// newest when several share it. Nil-safe.
func (f *FlightRecorder) Lookup(traceID string) (FlightRecord, bool) {
	for _, fr := range f.Snapshot() {
		if fr.TraceID == traceID {
			return fr, true
		}
	}
	return FlightRecord{}, false
}
