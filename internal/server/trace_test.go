package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// This file holds the end-to-end trace-propagation tests: an inbound W3C
// traceparent must flow through the middleware and out as this hop's
// response header, and its trace id must key the request's flight record.

const (
	inboundTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	inboundSpanID  = "00f067aa0ba902b7"
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

// TestTracePropagationEndToEnd drives the header contract: an inbound
// traceparent's trace id and flags come back on the response with a fresh
// span id minted by this hop, no legacy X-Trace-Id header is sent, and the
// request's /debug/requests entry carries the inbound trace id.
func TestTracePropagationEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 11, 200, 1000, 4)

	for _, flags := range []string{"01", "00"} {
		header := "00-" + inboundTraceID + "-" + inboundSpanID + "-" + flags
		resp, body := postTraced(t, ts, "/v1/detect",
			DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3},
			map[string]string{"traceparent": header})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect: %d %s", resp.StatusCode, body)
		}
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
		if want := flags == "01"; echoed.Sampled() != want {
			t.Fatalf("inbound flags %s: response sampled = %v, want the flag kept", flags, echoed.Sampled())
		}
		if got := resp.Header.Get("X-Trace-Id"); got != "" {
			t.Fatalf("X-Trace-Id %q echoed, want no legacy header", got)
		}
	}

	resp, body := getBody(t, ts, "/debug/requests?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/requests: %d %s", resp.StatusCode, body)
	}
	var fl flightJSON
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, fr := range fl.Records {
		if fr.TraceID == inboundTraceID && fr.Route == "/v1/detect" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("%d /v1/detect flight records carry inbound trace id %s, want 2; records: %+v",
			found, inboundTraceID, fl.Records)
	}
}

// TestMetricsJSONTelemetrySections asserts the /metrics JSON document
// carries the session gauges, and no SLO or span-export section.
func TestMetricsJSONTelemetrySections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
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
	for _, retired := range []string{"slo", "export"} {
		if _, ok := keys[retired]; ok {
			t.Errorf("/metrics JSON still has a %q key", retired)
		}
	}
}
