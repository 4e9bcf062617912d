package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// doTraced posts a JSON request continuing the W3C trace traceID (32 hex)
// via a traceparent header.
func doTraced(t *testing.T, ts *httptest.Server, path, traceID string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestDetectResponseAlgoCounters asserts a served detection carries the
// typed algorithm counters next to its stage timings, deep enough to name
// the kernel that ran.
func TestDetectResponseAlgoCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 41, 200, 1200, 4)
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var det DetectResponse
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if len(det.StageTimings) == 0 {
		t.Fatal("no stage_timings")
	}
	cs := det.Algo
	if cs == nil {
		t.Fatal("no algo_counters in detect response")
	}
	if cs.Cascade.Components < 1 || cs.Cascade.Trees != int64(det.Trees) {
		t.Errorf("cascade counters %+v disagree with response trees=%d", cs.Cascade, det.Trees)
	}
	if cs.Arbor.TarjanSolves != cs.Cascade.Components {
		t.Errorf("TarjanSolves = %d, want one per component (%d)",
			cs.Arbor.TarjanSolves, cs.Cascade.Components)
	}
	if cs.ISOMIT.LocalSolves != cs.Cascade.Trees || cs.ISOMIT.DPCells == 0 {
		t.Errorf("isomit counters %+v for %d trees", cs.ISOMIT, det.Trees)
	}
	if got := cs.Cascade.TreeSize.Count(); got != cs.Cascade.Trees {
		t.Errorf("TreeSize histogram has %d observations, want %d", got, cs.Cascade.Trees)
	}
}

// TestSimulateResponseAlgoCounters asserts a served simulation carries the
// diffusion counters and its trace ID.
func TestSimulateResponseAlgoCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 42, 150, 900, 3)
	resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{
		Trace: tr, Initiators: []int{0, 1}, Seed: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Algo == nil || sim.Algo.Diffusion.Runs != 1 {
		t.Fatalf("simulate algo_counters = %+v, want one diffusion run", sim.Algo)
	}
	if sim.Algo.Diffusion.Rounds != int64(sim.Rounds) || sim.Algo.Diffusion.Flips != int64(sim.Flips) {
		t.Errorf("diffusion counters %+v disagree with response rounds=%d flips=%d",
			sim.Algo.Diffusion, sim.Rounds, sim.Flips)
	}
	if sim.TraceID == "" {
		t.Error("simulate response has no trace_id")
	}
	// The run's counters also accumulate into the registry snapshot.
	snap := s.reg.Snapshot(QueueSnapshot{}, 0, 0)
	if snap.Algo == nil || snap.Algo.Diffusion.Runs != 1 {
		t.Errorf("registry algo = %+v, want the simulate run folded in", snap.Algo)
	}
	if snap.Runtime == nil || snap.Runtime.Goroutines < 1 {
		t.Errorf("registry runtime sample missing: %+v", snap.Runtime)
	}
}

// TestDebugRequestsEndToEnd drives real traffic — a successful detect, a
// successful simulate and a failed simulate — and checks the flight
// recorder serves all three on /debug/requests in JSON and HTML, newest
// first, with the failure pinned and the drill-down carrying the span tree
// and counters.
func TestDebugRequestsEndToEnd(t *testing.T) {
	const flightTraceID = "f1196700000000000000000000000001"
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 43, 200, 1200, 4)
	if resp, body := doTraced(t, ts, "/v1/detect", flightTraceID, DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{GraphHash: tr.NetworkHash(), Initiators: []int{0}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts, "/v1/simulate", SimulateRequest{GraphHash: "deadbeef", Initiators: []int{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-graph simulate status = %d, want 404", resp.StatusCode)
	}

	resp, body := getBody(t, ts, "/debug/requests?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug requests status = %d, body %s", resp.StatusCode, body)
	}
	var doc flightJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 3 || len(doc.Records) != 3 {
		t.Fatalf("retained %d records, want 3: %s", doc.Count, body)
	}
	if doc.SlowThresholdMS != float64(obs.DefaultSlowThreshold)/float64(time.Millisecond) {
		t.Errorf("slow_threshold_ms = %g", doc.SlowThresholdMS)
	}
	for i := 1; i < len(doc.Records); i++ {
		if doc.Records[i-1].Seq <= doc.Records[i].Seq {
			t.Fatalf("records not newest-first: %+v", doc.Records)
		}
	}
	failed := doc.Records[0]
	if failed.Route != "/v1/simulate" || failed.Status != http.StatusNotFound || !failed.Pinned || failed.Error == "" {
		t.Errorf("newest record should be the pinned 404 simulate: %+v", failed)
	}
	var detectRec *obs.FlightRecord
	for i := range doc.Records {
		if doc.Records[i].Route == "/v1/detect" {
			detectRec = &doc.Records[i]
		}
	}
	if detectRec == nil {
		t.Fatal("detect not retained")
	}
	if detectRec.TraceID != flightTraceID {
		t.Errorf("detect record trace = %q, want the client's %q", detectRec.TraceID, flightTraceID)
	}
	if !strings.HasPrefix(detectRec.Detail, "detector=") {
		t.Errorf("detect record detail = %q", detectRec.Detail)
	}
	if len(detectRec.Stages) == 0 || detectRec.Stages["tree_dp"].Count == 0 {
		t.Errorf("detect record has no span tree: %+v", detectRec.Stages)
	}
	if detectRec.Algo == nil || detectRec.Algo.Cascade.Trees == 0 {
		t.Errorf("detect record missing algo counters: %+v", detectRec.Algo)
	}

	// HTML list names all three trace IDs and tints the failed row.
	resp, body = getBody(t, ts, "/debug/requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("html status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	html := string(body)
	for _, rec := range doc.Records {
		if !strings.Contains(html, rec.TraceID) {
			t.Errorf("html list missing trace %q", rec.TraceID)
		}
	}
	if !strings.Contains(html, `<tr class="err">`) {
		t.Error("html list does not tint the failed request")
	}

	// Drill-down: HTML carries stages and algorithm counters; JSON round-trips.
	resp, body = getBody(t, ts, "/debug/requests?trace="+flightTraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill-down status = %d", resp.StatusCode)
	}
	detail := string(body)
	for _, want := range []string{"tree_dp", "algorithm counters", "tarjan_solves", flightTraceID} {
		if !strings.Contains(detail, want) {
			t.Errorf("drill-down missing %q", want)
		}
	}
	resp, body = getBody(t, ts, "/debug/requests?trace="+flightTraceID+"&format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill-down json status = %d", resp.StatusCode)
	}
	var one obs.FlightRecord
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != flightTraceID || one.Seq != detectRec.Seq {
		t.Errorf("drill-down json = %+v, want record %d", one, detectRec.Seq)
	}

	// Unknown trace and unknown format are client errors.
	if resp, _ := getBody(t, ts, "/debug/requests?trace=nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts, "/debug/requests?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", resp.StatusCode)
	}
}

// TestDebugRequestsFilters drives mixed traffic and checks the list view's
// ?route=, ?model= and ?min_ms= filters in JSON and HTML.
func TestDebugRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 48, 200, 1200, 4)
	if resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d, body %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{GraphHash: tr.NetworkHash(), Initiators: []int{0}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d, body %s", resp.StatusCode, body)
	}

	fetch := func(query string) flightJSON {
		t.Helper()
		resp, body := getBody(t, ts, "/debug/requests?format=json"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug requests%s status = %d, body %s", query, resp.StatusCode, body)
		}
		var doc flightJSON
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	all := fetch("")
	if all.Retained != 2 || all.Count != 2 || all.Filter != nil {
		t.Fatalf("unfiltered view = retained %d count %d filter %+v", all.Retained, all.Count, all.Filter)
	}

	byRoute := fetch("&route=/v1/detect")
	if byRoute.Count != 1 || byRoute.Records[0].Route != "/v1/detect" {
		t.Errorf("route filter kept %d records: %+v", byRoute.Count, byRoute.Records)
	}
	if byRoute.Retained != 2 || byRoute.Filter == nil || byRoute.Filter.Route != "/v1/detect" {
		t.Errorf("route filter echo = retained %d filter %+v", byRoute.Retained, byRoute.Filter)
	}

	// model= matches both "model=" (simulate) and "detector=" (detect) keys.
	byModel := fetch("&model=mfc")
	if byModel.Count != 1 || byModel.Records[0].Route != "/v1/simulate" {
		t.Errorf("model filter kept %+v", byModel.Records)
	}
	byDetector := fetch("&model=" + url.QueryEscape("RID(0.3)"))
	if byDetector.Count != 1 || byDetector.Records[0].Route != "/v1/detect" {
		t.Errorf("detector-as-model filter kept %+v", byDetector.Records)
	}
	if none := fetch("&model=nope"); none.Count != 0 {
		t.Errorf("unknown model kept %d records", none.Count)
	}

	// min_ms=0 passes everything; an absurdly high floor drops everything.
	if slow := fetch("&min_ms=1e12"); slow.Count != 0 || slow.Retained != 2 {
		t.Errorf("min_ms=1e12 kept %d of %d", slow.Count, slow.Retained)
	}
	if all2 := fetch("&min_ms=0"); all2.Count != 2 {
		t.Errorf("min_ms=0 kept %d records", all2.Count)
	}
	combined := fetch("&route=/v1/detect&model=" + url.QueryEscape("RID(0.3)") + "&min_ms=0.000001")
	if combined.Count != 1 {
		t.Errorf("combined filter kept %d records", combined.Count)
	}

	if resp, _ := getBody(t, ts, "/debug/requests?min_ms=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_ms status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts, "/debug/requests?min_ms=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative min_ms status = %d, want 400", resp.StatusCode)
	}

	// HTML view reflects the active filter.
	resp, body := getBody(t, ts, "/debug/requests?route=/v1/simulate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("html filter status = %d", resp.StatusCode)
	}
	html := string(body)
	if !strings.Contains(html, "route=/v1/simulate") {
		t.Error("html does not echo the filter")
	}
	if !strings.Contains(html, "of 2 retained") {
		t.Error("html does not show the retained total")
	}
}

// TestDebugRequestsSlowPinning runs a server whose slow threshold is below
// any real detection, so every record lands pinned.
func TestDebugRequestsSlowPinning(t *testing.T) {
	_, ts := newTestServer(t, Config{SlowThreshold: time.Nanosecond})
	tr := sampleTrace(t, 44, 150, 900, 3)
	if resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d, body %s", resp.StatusCode, body)
	}
	_, body := getBody(t, ts, "/debug/requests?format=json")
	var doc flightJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Records) != 1 || !doc.Records[0].Pinned {
		t.Fatalf("successful-but-slow detect not pinned: %+v", doc.Records)
	}
}

// TestDebugRequestsDisabled turns the recorder off via FlightSize < 0.
func TestDebugRequestsDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{FlightSize: -1})
	if s.flight != nil {
		t.Fatal("flight recorder created despite FlightSize < 0")
	}
	tr := sampleTrace(t, 45, 100, 600, 2)
	if resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect with disabled recorder = %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts, "/debug/requests"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /debug/requests status = %d, want 404", resp.StatusCode)
	}
}

// TestServerDebugHandler checks the per-server debug mux carries pprof,
// expvar and the flight view.
func TestServerDebugHandler(t *testing.T) {
	s, svc := newTestServer(t, Config{})
	tr := sampleTrace(t, 46, 100, 600, 2)
	if resp, body := postJSON(t, svc, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d, body %s", resp.StatusCode, body)
	}
	ts := httptest.NewServer(s.DebugHandler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/requests", "/debug/requests?format=json"} {
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
