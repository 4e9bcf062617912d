package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file holds the end-to-end trace-propagation tests: an inbound W3C
// traceparent must flow through the middleware, into the handler's pipeline
// recorder, and out both as response headers and as OTLP/JSON spans in the
// exporter's capture file — with session detects linking back to the event
// spans that dirtied their components.

const (
	inboundTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	inboundSpanID  = "00f067aa0ba902b7"
	inboundHeader  = "00-" + inboundTraceID + "-" + inboundSpanID + "-01"
)

// postTraced POSTs JSON with trace headers attached.
func postTraced(tb testing.TB, ts *httptest.Server, path string, body any, headers map[string]string) (*http.Response, []byte) {
	tb.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(payload))
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	return resp, buf.Bytes()
}

// captureSpan is the slice of the OTLP/JSON wire shape these tests read.
type captureSpan struct {
	TraceID      string `json:"traceId"`
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId"`
	Name         string `json:"name"`
	Kind         int    `json:"kind"`
	Attributes   []struct {
		Key   string `json:"key"`
		Value struct {
			StringValue string `json:"stringValue"`
			IntValue    string `json:"intValue"`
		} `json:"value"`
	} `json:"attributes"`
	Links []struct {
		TraceID string `json:"traceId"`
		SpanID  string `json:"spanId"`
	} `json:"links"`
	Status struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"status"`
}

// readCapture flattens every span in the NDJSON capture file.
func readCapture(tb testing.TB, path string) []captureSpan {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var spans []captureSpan
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []captureSpan `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			tb.Fatalf("capture line is not valid OTLP/JSON: %v", err)
		}
		for _, rs := range line.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				spans = append(spans, ss.Spans...)
			}
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return spans
}

func findSpan(spans []captureSpan, name string) *captureSpan {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

func attrValue(sp *captureSpan, key string) (string, bool) {
	for _, a := range sp.Attributes {
		if a.Key == key {
			if a.Value.IntValue != "" {
				return a.Value.IntValue, true
			}
			return a.Value.StringValue, true
		}
	}
	return "", false
}

// newTracedServer builds a server whose exporter captures to an NDJSON file
// and returns the capture path. BatchSize 1 so every request flushes a line
// as soon as the worker sees it; the exporter is closed explicitly by the
// tests (idempotent, so the Cleanup Shutdown re-closing it is fine).
func newTracedServer(tb testing.TB, ratio float64) (*httptest.Server, *obs.Exporter, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "capture.ndjson")
	exp, err := obs.NewExporter(obs.ExporterConfig{File: path, BatchSize: 1, SampleRatio: ratio})
	if err != nil {
		tb.Fatal(err)
	}
	_, ts := newTestServer(tb, Config{Exporter: exp})
	return ts, exp, path
}

// TestTracePropagationEndToEnd drives the acceptance flow: inbound
// traceparent → response echoes a valid traceparent on the same trace with
// a fresh span id → the OTLP capture carries the inbound trace id, the
// inbound span id as parentSpanId, and the pipeline's algo counters as
// attributes on the detect root span, with stage child spans beneath it.
func TestTracePropagationEndToEnd(t *testing.T) {
	ts, exp, path := newTracedServer(t, 1)
	tr := sampleTrace(t, 11, 200, 1000, 4)

	resp, body := postTraced(t, ts, "/v1/detect",
		DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3},
		map[string]string{"traceparent": inboundHeader, "tracestate": "congo=t61rcWkgMzE"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}

	// Response headers: same trace, this hop's own span id, and no
	// retired X-Trace-Id echo.
	echoed, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q invalid: %v", resp.Header.Get("traceparent"), err)
	}
	if echoed.TraceID != inboundTraceID {
		t.Fatalf("response trace id %q, want inbound %q", echoed.TraceID, inboundTraceID)
	}
	if echoed.SpanID == inboundSpanID {
		t.Fatal("server must mint its own span id, not echo the caller's")
	}
	if !echoed.Sampled() {
		t.Fatal("sampled inbound trace at ratio 1 must stay sampled")
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id %q echoed, want no legacy header", got)
	}

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	spans := readCapture(t, path)
	root := findSpan(spans, "detect")
	if root == nil {
		t.Fatalf("no detect root span in capture; spans: %d", len(spans))
	}
	if root.TraceID != inboundTraceID {
		t.Fatalf("exported trace id %q, want inbound %q", root.TraceID, inboundTraceID)
	}
	if root.ParentSpanID != inboundSpanID {
		t.Fatalf("exported parentSpanId %q, want inbound span %q", root.ParentSpanID, inboundSpanID)
	}
	if root.SpanID != echoed.SpanID {
		t.Fatalf("exported span id %q, want the one echoed to the caller %q", root.SpanID, echoed.SpanID)
	}
	if root.Kind != 2 {
		t.Fatalf("root kind %d, want SERVER (2)", root.Kind)
	}
	if v, ok := attrValue(root, "http.status_code"); !ok || v != "200" {
		t.Fatalf("http.status_code = %q", v)
	}
	if v, ok := attrValue(root, "request.detail"); !ok || !strings.HasPrefix(v, "detector=") {
		t.Fatalf("request.detail = %q, want detector name", v)
	}
	// The pipeline's typed counters must ride on the root span, and the
	// named counter layer they replaced must be gone.
	if _, ok := attrValue(root, "algo.cascade_infected_nodes"); !ok {
		t.Error("algo.cascade_infected_nodes attribute missing")
	}
	for _, a := range root.Attributes {
		if strings.HasPrefix(a.Key, "counter.") {
			t.Errorf("named counter attribute %s still exported", a.Key)
		}
	}
	// Stage child spans hang off the root within the same trace.
	stages := 0
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "stage.") && sp.ParentSpanID == root.SpanID {
			if sp.TraceID != inboundTraceID {
				t.Fatalf("stage %s on trace %q", sp.Name, sp.TraceID)
			}
			stages++
		}
	}
	if stages == 0 {
		t.Error("no stage child spans under the detect root")
	}
}

// TestTailSamplingAtServer checks the server-level contract with a
// near-zero ratio: an ordinary 200 samples out, a failed request still
// exports (and carries error status).
func TestTailSamplingAtServer(t *testing.T) {
	ts, exp, path := newTracedServer(t, 0.000001)

	// Trace ids whose low 64 bits are maximal: certain to sample out.
	okHeader := "00-1111111111111111ffffffffffffffff-00f067aa0ba902b7-01"
	failHeader := "00-2222222222222222ffffffffffffffff-00f067aa0ba902b7-01"

	resp, _ := postTraced(t, ts, "/v1/detect", DetectRequest{Trace: sampleTrace(t, 13, 120, 500, 3), Beta: 0.3},
		map[string]string{"traceparent": okHeader})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d", resp.StatusCode)
	}
	// The echoed sampled flag must reflect the head-sampling decision.
	echoed, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	if !echoed.Sampled() {
		// Inbound flag was 01, which the middleware preserves; the span is
		// still tail-dropped below. (Pinning documents the OR semantics.)
		t.Fatal("inbound sampled flag must be preserved")
	}

	// A malformed body fails with 400 — failure pins it past sampling.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", failHeader)
	fresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", fresp.StatusCode)
	}

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	spans := readCapture(t, path)
	for _, sp := range spans {
		if sp.TraceID == "1111111111111111ffffffffffffffff" {
			t.Fatal("ordinary request exported despite sampling out")
		}
	}
	var failed *captureSpan
	for i := range spans {
		if spans[i].TraceID == "2222222222222222ffffffffffffffff" {
			failed = &spans[i]
		}
	}
	if failed == nil {
		t.Fatal("failed request missing from capture — tail sampling must pin failures")
	}
	if failed.Status.Code != 2 {
		t.Fatalf("failed span status %d, want ERROR (2)", failed.Status.Code)
	}
	if v, _ := attrValue(failed, "http.status_code"); v != "400" {
		t.Fatalf("failed span http.status_code = %q", v)
	}
}

// TestSessionDetectSpanLinks streams a session (created and fed under
// distinct traces) and asserts the session detect's exported span links
// back to the session root span and to each event batch's span.
func TestSessionDetectSpanLinks(t *testing.T) {
	ts, exp, path := newTracedServer(t, 1)
	tr := sampleTrace(t, 21, 150, 700, 3)

	rootHeader := "00-aaaa0000aaaa0000aaaa0000aaaa0001-1000000000000001-01"
	eventHeaders := []string{
		"00-bbbb0000bbbb0000bbbb0000bbbb0001-2000000000000001-01",
		"00-cccc0000cccc0000cccc0000cccc0001-3000000000000001-01",
	}

	resp, body := postTraced(t, ts, "/v1/sessions", SessionRequest{Trace: tr, Beta: 0.3},
		map[string]string{"traceparent": rootHeader})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for i, batch := range [][]trace.Event{events[:half], events[half:]} {
		resp, body = postTraced(t, ts, "/v1/sessions/"+sr.SessionID+"/events",
			EventsRequest{Events: batch}, map[string]string{"traceparent": eventHeaders[i]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, body = getBody(t, ts, "/v1/sessions/"+sr.SessionID+"/detect")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session detect: %d %s", resp.StatusCode, body)
	}

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	spans := readCapture(t, path)
	detect := findSpan(spans, "session_detect")
	if detect == nil {
		t.Fatal("no session_detect span in capture")
	}
	linked := map[string]bool{}
	for _, l := range detect.Links {
		linked[l.TraceID] = true
	}
	if !linked["aaaa0000aaaa0000aaaa0000aaaa0001"] {
		t.Errorf("detect span does not link the session root trace; links: %v", detect.Links)
	}
	for _, want := range []string{"bbbb0000bbbb0000bbbb0000bbbb0001", "cccc0000cccc0000cccc0000cccc0001"} {
		if !linked[want] {
			t.Errorf("detect span does not link event-batch trace %s; links: %v", want, detect.Links)
		}
	}
	// The detect span carries the incremental-work detail and the ingest
	// counters from the session's recorder.
	if v, ok := attrValue(detect, "request.detail"); !ok || !strings.Contains(v, "dirty=") {
		t.Errorf("session_detect detail = %q, want dirty/reused accounting", v)
	}
}

// TestMetricsJSONTelemetrySections asserts the /metrics JSON document
// carries the session gauges and exporter counters, and no SLO section.
func TestMetricsJSONTelemetrySections(t *testing.T) {
	ts, exp, _ := newTracedServer(t, 1)
	tr := sampleTrace(t, 22, 120, 500, 3)
	if resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Sessions == nil || snap.Sessions.Active != 1 {
		t.Fatalf("sessions section = %+v, want 1 active", snap.Sessions)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["slo"]; ok {
		t.Errorf("/metrics JSON still has an slo key")
	}
	if snap.Export == nil || snap.Export.Enqueued < 1 {
		t.Fatalf("export section = %+v, want at least one enqueued request", snap.Export)
	}
	exp.Close()
}
