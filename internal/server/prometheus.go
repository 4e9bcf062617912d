package server

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// RenderPrometheus writes a metrics snapshot in the Prometheus text
// exposition format. It is a pure function of the snapshot, so the output
// is deterministic (maps are emitted in sorted key order) and golden-
// testable. Latencies are converted from the registry's milliseconds to
// Prometheus-conventional seconds. Latency labels carrying the
// "stage." prefix render as the per-stage histogram family
// ridserve_stage_duration_seconds{stage="..."} — the pipeline breakdown —
// while the rest stay under ridserve_latency_seconds{op="..."}.
func RenderPrometheus(w io.Writer, s *Snapshot) error {
	p := obs.NewPromWriter(w)
	renderMetricFamilies(p, s)
	return p.Err()
}

// RenderOpenMetrics writes the same snapshot in the OpenMetrics 1.0 text
// format: identical family sequence, but with OpenMetrics metadata
// ordering, trace-id exemplars on latency histogram buckets, and the
// mandatory # EOF terminator.
func RenderOpenMetrics(w io.Writer, s *Snapshot) error {
	p := obs.NewOpenMetricsWriter(w)
	renderMetricFamilies(p, s)
	p.EOF()
	return p.Err()
}

// renderMetricFamilies emits every family; the writer's mode decides the
// concrete syntax (Prometheus 0.0.4 vs OpenMetrics 1.0).
func renderMetricFamilies(p *obs.PromWriter, s *Snapshot) {
	p.Header("ridserve_uptime_seconds", "Seconds since the server started.", "gauge")
	p.Sample("ridserve_uptime_seconds", nil, s.UptimeSeconds)

	p.Header("ridserve_build_info", "Build metadata; the value is always 1.", "gauge")
	p.Sample("ridserve_build_info", []obs.PromLabel{
		{Name: "go_arch", Value: s.Build.GOARCH},
		{Name: "go_os", Value: s.Build.GOOS},
		{Name: "go_version", Value: s.Build.GoVersion},
		{Name: "gomaxprocs", Value: strconv.Itoa(s.Build.GOMAXPROCS)},
		{Name: "num_cpu", Value: strconv.Itoa(s.Build.NumCPU)},
	}, 1)

	if len(s.Requests) > 0 {
		p.Header("ridserve_requests_total", "Requests served, by route and status.", "counter")
		for _, route := range obs.SortedKeys(s.Requests) {
			byStatus := s.Requests[route]
			for _, status := range obs.SortedKeys(byStatus) {
				p.IntSample("ridserve_requests_total", []obs.PromLabel{
					{Name: "route", Value: route},
					{Name: "status", Value: status},
				}, byStatus[status])
			}
		}
	}

	var opLabels, stageLabels []string
	for _, label := range obs.SortedKeys(s.LatencyMS) {
		if strings.HasPrefix(label, stagePrefix) {
			stageLabels = append(stageLabels, label)
		} else {
			opLabels = append(opLabels, label)
		}
	}
	writeLatencyFamily(p, "ridserve_latency_seconds",
		"Operation latency, by route and detector.", "op", opLabels, s, "")
	writeLatencyFamily(p, "ridserve_stage_duration_seconds",
		"Per-request pipeline stage wall time, by stage.", "stage", stageLabels, s, stagePrefix)

	if s.Algo != nil {
		p.Header("ridserve_algo_events_total",
			"Algorithm-depth work counters (arborescence kernel ops, forest extraction, tree DP modes, diffusion) accumulated across requests.",
			"counter")
		s.Algo.Each(func(name string, v int64) {
			p.IntSample("ridserve_algo_events_total",
				[]obs.PromLabel{{Name: "event", Value: name}}, v)
		})
		writeWorkHist(p, "ridserve_cascade_tree_size",
			"Extracted cascade-tree sizes (nodes per tree), across requests.", &s.Algo.Cascade.TreeSize)
		writeWorkHist(p, "ridserve_cascade_tree_depth",
			"Extracted cascade-tree depths, across requests.", &s.Algo.Cascade.TreeDepth)
	}

	p.Header("ridserve_queue_depth", "Jobs waiting in the worker-pool queue.", "gauge")
	p.IntSample("ridserve_queue_depth", nil, int64(s.Queue.Depth))
	p.Header("ridserve_queue_capacity", "Worker-pool queue capacity.", "gauge")
	p.IntSample("ridserve_queue_capacity", nil, int64(s.Queue.Capacity))
	p.Header("ridserve_workers", "Worker-pool size.", "gauge")
	p.IntSample("ridserve_workers", nil, int64(s.Queue.Workers))
	p.Header("ridserve_queue_rejected_total", "Requests shed by queue backpressure.", "counter")
	p.IntSample("ridserve_queue_rejected_total", nil, s.Queue.Rejected)

	p.Header("ridserve_cache_lookups_total", "Graph-cache lookups, by result.", "counter")
	p.IntSample("ridserve_cache_lookups_total", []obs.PromLabel{{Name: "result", Value: "hit"}}, s.Cache.Hits)
	p.IntSample("ridserve_cache_lookups_total", []obs.PromLabel{{Name: "result", Value: "miss"}}, s.Cache.Misses)
	p.Header("ridserve_cache_size", "Networks currently cached.", "gauge")
	p.IntSample("ridserve_cache_size", nil, int64(s.Cache.Size))
	p.Header("ridserve_cache_capacity", "Graph-cache capacity.", "gauge")
	p.IntSample("ridserve_cache_capacity", nil, int64(s.Cache.Capacity))

	if sess := s.Sessions; sess != nil {
		p.Header("ridserve_sessions_active", "Live (non-expired) ingest sessions.", "gauge")
		p.IntSample("ridserve_sessions_active", nil, int64(sess.Active))
		p.Header("ridserve_sessions_evicted_total", "Ingest sessions evicted by idle TTL.", "counter")
		p.IntSample("ridserve_sessions_evicted_total", nil, sess.Evicted)
		p.Header("ridserve_sessions_rejected_total", "Session creations refused at capacity.", "counter")
		p.IntSample("ridserve_sessions_rejected_total", nil, sess.Rejected)
	}

	if rt := s.Runtime; rt != nil {
		p.Header("ridserve_go_goroutines", "Live goroutines.", "gauge")
		p.IntSample("ridserve_go_goroutines", nil, rt.Goroutines)
		p.Header("ridserve_go_heap_bytes", "Live heap memory occupied by objects.", "gauge")
		p.IntSample("ridserve_go_heap_bytes", nil, rt.HeapBytes)
		p.Header("ridserve_go_alloc_bytes_total", "Cumulative bytes allocated on the heap.", "counter")
		p.IntSample("ridserve_go_alloc_bytes_total", nil, rt.TotalAllocBytes)
		p.Header("ridserve_go_gc_cycles_total", "Completed GC cycles.", "counter")
		p.IntSample("ridserve_go_gc_cycles_total", nil, rt.GCCycles)
		writeQuantiles(p, "ridserve_go_gc_pause_seconds",
			"Stop-the-world GC pause latency quantiles (quantile 1 is the max).", rt.GCPause)
		writeQuantiles(p, "ridserve_go_sched_latency_seconds",
			"Time goroutines spend runnable before running, as quantiles (quantile 1 is the max).", rt.SchedLatency)
	}

	if pr := s.Profiling; pr != nil && pr.Enabled {
		p.Header("ridserve_profile_windows_total", "CPU profile windows captured by the continuous profiler.", "counter")
		p.IntSample("ridserve_profile_windows_total", nil, int64(pr.WindowsCaptured))
		p.Header("ridserve_profile_windows_skipped_total", "Profile windows skipped because capture could not start.", "counter")
		p.IntSample("ridserve_profile_windows_skipped_total", nil, int64(pr.WindowsSkipped))
		p.Header("ridserve_profile_decode_errors_total", "Profile windows dropped by pprof decode failures.", "counter")
		p.IntSample("ridserve_profile_decode_errors_total", nil, int64(pr.DecodeErrors))
		p.Header("ridserve_profile_cpu_seconds_total",
			"Sampled CPU time across all profile windows; the dim/key series split the total by pprof label value.",
			"counter")
		p.Sample("ridserve_profile_cpu_seconds_total",
			[]obs.PromLabel{{Name: "dim", Value: "all"}, {Name: "key", Value: "all"}}, pr.CPUSecondsTotal)
		writeProfileDim(p, "route", pr.CPUSecondsByRoute)
		writeProfileDim(p, "model", pr.CPUSecondsByModel)
		writeProfileDim(p, "stage", pr.CPUSecondsByStage)
		p.Header("ridserve_profile_attributed_ratio",
			"Fraction of sampled CPU time carrying any pprof label.", "gauge")
		p.Sample("ridserve_profile_attributed_ratio", nil, pr.AttributedRatio)
	}
}

// writeProfileDim emits one label dimension's CPU split.
func writeProfileDim(p *obs.PromWriter, dim string, seconds map[string]float64) {
	for _, key := range obs.SortedKeys(seconds) {
		p.Sample("ridserve_profile_cpu_seconds_total",
			[]obs.PromLabel{{Name: "dim", Value: dim}, {Name: "key", Value: key}}, seconds[key])
	}
}

// writeWorkHist renders one obs.WorkHist as a Prometheus histogram family.
// Skipped entirely while empty.
func writeWorkHist(p *obs.PromWriter, name, help string, h *obs.WorkHist) {
	count := h.Count()
	if count == 0 {
		return
	}
	bounds := make([]float64, len(obs.WorkHistBounds))
	for i, b := range obs.WorkHistBounds {
		bounds[i] = float64(b)
	}
	p.Header(name, help, "histogram")
	p.Histogram(name, nil, bounds, h.Cumulative(), float64(h.Sum), count)
}

// writeQuantiles renders a runtime quantile summary as a gauge family
// labelled by quantile — the exposition stays a pure snapshot function, so
// the summary type (which implies cumulative _sum/_count series) is not
// used. Skipped when the runtime didn't expose the source histogram.
func writeQuantiles(p *obs.PromWriter, name, help string, q *obs.QuantileSummary) {
	if q == nil {
		return
	}
	p.Header(name, help, "gauge")
	for _, s := range []struct {
		q string
		v float64
	}{{"0.5", q.P50}, {"0.9", q.P90}, {"0.99", q.P99}, {"1", q.Max}} {
		p.Sample(name, []obs.PromLabel{{Name: "quantile", Value: s.q}}, s.v)
	}
}

// writeLatencyFamily renders one histogram family from the snapshot's
// latency map, stripping prefix off each label for the exposed label
// value. Skips the header when the family is empty.
func writeLatencyFamily(p *obs.PromWriter, name, help, labelName string, labels []string, s *Snapshot, prefix string) {
	if len(labels) == 0 {
		return
	}
	p.Header(name, help, "histogram")
	for _, label := range labels {
		h := s.LatencyMS[label]
		bounds := make([]float64, len(h.BoundsMS))
		for i, ms := range h.BoundsMS {
			bounds[i] = ms / 1000
		}
		var exemplars []obs.PromExemplar
		for i, e := range h.Exemplars {
			if e.TraceID == "" {
				continue
			}
			if exemplars == nil {
				exemplars = make([]obs.PromExemplar, len(h.Exemplars))
			}
			exemplars[i] = obs.PromExemplar{
				Labels: []obs.PromLabel{{Name: "trace_id", Value: e.TraceID}},
				Value:  e.ValueMS / 1000,
				TS:     e.TS,
			}
		}
		p.HistogramEx(name,
			[]obs.PromLabel{{Name: labelName, Value: strings.TrimPrefix(label, prefix)}},
			bounds, h.Buckets, h.SumMS/1000, h.Count, exemplars)
	}
}
