package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRenderPrometheusGolden locks the exposition format byte-for-byte on
// a hand-built snapshot: deterministic ordering, label escaping (the op
// label carries a quote and a backslash), millisecond→second conversion
// and cumulative le buckets ending at +Inf.
func TestRenderPrometheusGolden(t *testing.T) {
	snap := &Snapshot{
		UptimeS:       12.5,
		UptimeSeconds: 12.5,
		Build:         BuildInfo{GoVersion: "go1.22.0", GOMAXPROCS: 8, NumCPU: 16, GOOS: "linux", GOARCH: "amd64"},
		Requests: map[string]map[string]int64{
			"detect": {"200": 3, "400": 1},
		},
		LatencyMS: map[string]*HistogramSnapshot{
			`detect.RID"w\`: {Count: 3, SumMS: 7.5, BoundsMS: []float64{1, 5}, Buckets: []int64{1, 2, 3}},
			"stage.tree_dp": {Count: 2, SumMS: 3, BoundsMS: []float64{1, 5}, Buckets: []int64{0, 2, 2}},
		},
		Queue: QueueSnapshot{Depth: 1, Capacity: 16, Workers: 4, Rejected: 2},
		Cache: CacheSnapshot{Hits: 3, Misses: 1, HitRate: 0.75, Size: 1, Capacity: 64},
	}
	var b strings.Builder
	if err := RenderPrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	golden := `# HELP ridserve_uptime_seconds Seconds since the server started.
# TYPE ridserve_uptime_seconds gauge
ridserve_uptime_seconds 12.5
# HELP ridserve_build_info Build metadata; the value is always 1.
# TYPE ridserve_build_info gauge
ridserve_build_info{go_arch="amd64",go_os="linux",go_version="go1.22.0",gomaxprocs="8",num_cpu="16"} 1
# HELP ridserve_requests_total Requests served, by route and status.
# TYPE ridserve_requests_total counter
ridserve_requests_total{route="detect",status="200"} 3
ridserve_requests_total{route="detect",status="400"} 1
# HELP ridserve_latency_seconds Operation latency, by route and detector.
# TYPE ridserve_latency_seconds histogram
ridserve_latency_seconds_bucket{op="detect.RID\"w\\",le="0.001"} 1
ridserve_latency_seconds_bucket{op="detect.RID\"w\\",le="0.005"} 2
ridserve_latency_seconds_bucket{op="detect.RID\"w\\",le="+Inf"} 3
ridserve_latency_seconds_sum{op="detect.RID\"w\\"} 0.0075
ridserve_latency_seconds_count{op="detect.RID\"w\\"} 3
# HELP ridserve_stage_duration_seconds Per-request pipeline stage wall time, by stage.
# TYPE ridserve_stage_duration_seconds histogram
ridserve_stage_duration_seconds_bucket{stage="tree_dp",le="0.001"} 0
ridserve_stage_duration_seconds_bucket{stage="tree_dp",le="0.005"} 2
ridserve_stage_duration_seconds_bucket{stage="tree_dp",le="+Inf"} 2
ridserve_stage_duration_seconds_sum{stage="tree_dp"} 0.003
ridserve_stage_duration_seconds_count{stage="tree_dp"} 2
# HELP ridserve_queue_depth Jobs waiting in the worker-pool queue.
# TYPE ridserve_queue_depth gauge
ridserve_queue_depth 1
# HELP ridserve_queue_capacity Worker-pool queue capacity.
# TYPE ridserve_queue_capacity gauge
ridserve_queue_capacity 16
# HELP ridserve_workers Worker-pool size.
# TYPE ridserve_workers gauge
ridserve_workers 4
# HELP ridserve_queue_rejected_total Requests shed by queue backpressure.
# TYPE ridserve_queue_rejected_total counter
ridserve_queue_rejected_total 2
# HELP ridserve_cache_lookups_total Graph-cache lookups, by result.
# TYPE ridserve_cache_lookups_total counter
ridserve_cache_lookups_total{result="hit"} 3
ridserve_cache_lookups_total{result="miss"} 1
# HELP ridserve_cache_size Networks currently cached.
# TYPE ridserve_cache_size gauge
ridserve_cache_size 1
# HELP ridserve_cache_capacity Graph-cache capacity.
# TYPE ridserve_cache_capacity gauge
ridserve_cache_capacity 64
`
	if got := b.String(); got != golden {
		t.Errorf("rendered output diverges from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestMetricsPrometheusEndpoint exercises the live endpoint: after a real
// detect, ?format=prometheus serves valid text format carrying per-stage
// histograms and algorithm counters, every bucket series is cumulative and
// ends at its family count, and an unknown format is rejected.
func TestMetricsPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 21, 200, 1200, 4)
	if resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d, body %s", resp.StatusCode, body)
	}

	resp, body := getBody(t, ts, "/metrics?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE ridserve_stage_duration_seconds histogram",
		`ridserve_stage_duration_seconds_bucket{stage="tree_dp",le="+Inf"}`,
		`ridserve_requests_total{route="detect",status="200"} 1`,
		`ridserve_algo_events_total{event="cascade_trees"}`,
		"ridserve_cascade_tree_size_sum ",
		"ridserve_build_info{go_arch=",
		"ridserve_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Every _bucket series must be cumulative within its label set, and the
	// +Inf bucket must equal the family's _count.
	type family struct {
		last   int64
		inf    int64
		hasInf bool
	}
	families := map[string]*family{} // keyed by series name sans le label
	counts := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, valueStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		value, err := strconv.ParseInt(valueStr, 10, 64)
		if strings.Contains(name, "_bucket{") {
			if err != nil {
				t.Fatalf("non-integer bucket count in %q", line)
			}
			leAt := strings.LastIndex(name, ",le=")
			if leAt < 0 {
				// Histograms without other labels open with le.
				leAt = strings.LastIndex(name, "{le=")
			}
			if leAt < 0 {
				t.Fatalf("bucket series without le label: %q", line)
			}
			key := name[:leAt]
			f := families[key]
			if f == nil {
				f = &family{}
				families[key] = f
			}
			if value < f.last {
				t.Errorf("non-cumulative buckets in %q: %d after %d", key, value, f.last)
			}
			f.last = value
			if strings.Contains(name, `le="+Inf"`) {
				f.inf, f.hasInf = value, true
			}
		} else if i := strings.Index(name, "_count"); err == nil && i >= 0 {
			counts[name[:i]+"_bucket"+name[i+len("_count"):]] = value
		}
	}
	if len(families) == 0 {
		t.Fatal("no histogram bucket series in exposition")
	}
	for key, f := range families {
		if !f.hasInf {
			t.Errorf("family %q has no +Inf bucket", key)
		}
		if want, ok := counts[key]; ok && f.inf != want {
			t.Errorf("family %q: +Inf bucket %d != count %d", key, f.inf, want)
		}
	}

	// JSON stays the default and carries the new satellite fields.
	resp, body = getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json metrics status = %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.UptimeSeconds <= 0 || snap.UptimeSeconds != snap.UptimeS {
		t.Errorf("uptime_seconds = %g, uptime_s = %g", snap.UptimeSeconds, snap.UptimeS)
	}
	if snap.Build.GoVersion == "" || snap.Build.GOMAXPROCS < 1 || snap.Build.NumCPU < 1 ||
		snap.Build.GOOS == "" || snap.Build.GOARCH == "" {
		t.Errorf("build info not populated: %+v", snap.Build)
	}
	if snap.Profiling == nil || snap.Profiling.Enabled {
		t.Errorf("profiling snapshot = %+v, want present and disabled", snap.Profiling)
	}
	if snap.Algo == nil || snap.Algo.Cascade.Trees < 1 {
		t.Errorf("algo counters not merged: %+v", snap.Algo)
	}

	resp, body = getBody(t, ts, "/metrics?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestDetectStageTimingsAndTraceID asserts the detect response's stage
// breakdown is present, disjoint (sums to at most the reported elapsed
// time) and correlated to the response's trace ID, which honors an
// inbound traceparent.
func TestDetectStageTimingsAndTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 22, 200, 1200, 4)
	payload, err := json.Marshal(DetectRequest{Trace: tr, Beta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	const inbound = "4bf92f3577b34da6a3ce929d0e0e4736"
	req.Header.Set("traceparent", "00-"+inbound+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if tc, err := obs.ParseTraceparent(resp.Header.Get("traceparent")); err != nil || tc.TraceID != inbound {
		t.Errorf("response traceparent %q (%v), want trace id %q", resp.Header.Get("traceparent"), err, inbound)
	}
	var det DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&det); err != nil {
		t.Fatal(err)
	}
	if det.TraceID != inbound {
		t.Errorf("trace_id = %q, want the request's (%q)", det.TraceID, inbound)
	}
	if len(det.StageTimings) == 0 {
		t.Fatal("no stage_timings in response")
	}
	for _, stage := range []string{"graph_build", "snapshot", "components", "arborescence", "tree_build", "tree_dp"} {
		if _, ok := det.StageTimings[stage]; !ok {
			t.Errorf("stage_timings missing %q: %v", stage, det.StageTimings)
		}
	}
	var sum float64
	for stage, ms := range det.StageTimings {
		if ms < 0 {
			t.Errorf("stage %q has negative duration %g", stage, ms)
		}
		sum += ms
	}
	if sum > det.ElapsedMS {
		t.Errorf("stage timings sum to %gms > elapsed %gms; stages overlap", sum, det.ElapsedMS)
	}

	// Without an inbound header the server mints a fresh W3C trace id.
	resp2, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp2.StatusCode, body)
	}
	var det2 DetectResponse
	if err := json.Unmarshal(body, &det2); err != nil {
		t.Fatal(err)
	}
	if id := det2.TraceID; len(id) != 32 || strings.Trim(id, "0123456789abcdef") != "" || strings.Trim(id, "0") == "" {
		t.Errorf("minted trace ID %q, want 32 lowercase hex chars, not all zero", id)
	}
	if tc, err := obs.ParseTraceparent(resp2.Header.Get("traceparent")); err != nil || tc.TraceID != det2.TraceID {
		t.Errorf("response traceparent %q (%v), want trace id %q", resp2.Header.Get("traceparent"), err, det2.TraceID)
	}
}

// TestDebugHandler checks the profiling mux serves pprof and expvar.
func TestDebugHandler(t *testing.T) {
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}
