package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// sampleTrace simulates an MFC outbreak on a synthetic signed network and
// wraps it as a wire-format instance with ground truth.
func sampleTrace(tb testing.TB, seed uint64, nodes, edges, nSeeds int) *trace.Trace {
	tb.Helper()
	rng := xrand.New(seed)
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: nodes, Edges: edges, PositiveRatio: 0.8}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	dif := sgraph.WeightByJaccard(g, 0.1, rng).Reverse()
	seeds, states, err := diffusion.SampleInitiators(dif.NumNodes(), nSeeds, 0.5, rng)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: 3}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := cascade.NewSnapshot(dif, c.States)
	if err != nil {
		tb.Fatal(err)
	}
	return trace.FromSnapshot("test", snap, seeds, states)
}

func postJSON(tb testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	tb.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
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

func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

// TestDetectIdentityOnlyTruth sends a trace whose ground truth is seeds
// without seed states: the response still scores the detection, with the
// same identity metrics as the full trace.
func TestDetectIdentityOnlyTruth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 1, 300, 1800, 6)
	var want, got DetectResponse
	for _, out := range []*DetectResponse{&want, &got} {
		resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
		tr.SeedStates = nil
	}
	if got.Truth == nil {
		t.Fatal("seeds-only trace: response has no truth block")
	}
	if *got.Truth != *want.Truth {
		t.Errorf("seeds-only truth = %+v, full trace %+v", *got.Truth, *want.Truth)
	}
}

func TestDetectRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 1, 300, 1800, 6)

	var first DetectResponse
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Initiators) == 0 {
		t.Fatal("no initiators in response")
	}
	if first.Cache != "miss" {
		t.Errorf("first query cache = %q, want miss", first.Cache)
	}
	if first.GraphHash != tr.NetworkHash() {
		t.Errorf("graph hash mismatch")
	}
	if first.Truth == nil || first.Truth.F1 <= 0 {
		t.Errorf("expected a positive ground-truth F1, got %+v", first.Truth)
	}
	for i := 1; i < len(first.Initiators); i++ {
		if first.Initiators[i].Score > first.Initiators[i-1].Score {
			t.Fatalf("initiators not ranked by score at %d", i)
		}
	}
	for _, ri := range first.Initiators {
		if ri.State != 1 && ri.State != -1 {
			t.Fatalf("RID should infer a concrete state, got %d", ri.State)
		}
	}

	// Repeat query on the same network: the graph cache must hit.
	var second DetectResponse
	resp, body = postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.1, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Errorf("repeat query cache = %q, want hit", second.Cache)
	}
	if len(second.Initiators) > 3 {
		t.Errorf("k=3 returned %d initiators", len(second.Initiators))
	}

	// The metrics endpoint reports what just happened.
	mresp, mbody := getBody(t, ts, "/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests["detect"]["200"] != 2 {
		t.Errorf("detect 200 count = %d, want 2", snap.Requests["detect"]["200"])
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Size != 1 {
		t.Errorf("cache stats = %+v", snap.Cache)
	}
	if snap.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", snap.Cache.HitRate)
	}
	if snap.Queue.Capacity == 0 || snap.Queue.Workers == 0 {
		t.Errorf("queue gauges missing: %+v", snap.Queue)
	}
	found := false
	for label, h := range snap.LatencyMS {
		if h.Count > 0 && len(label) > 7 && label[:7] == "detect." {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-detector latency histogram in %v", keys(snap.LatencyMS))
	}
	_ = s
}

func getBody(tb testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	tb.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDetectBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 2, 50, 200, 2)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"broken JSON", `{broken`, http.StatusBadRequest},
		{"unknown field", `{"nope": 1}`, http.StatusBadRequest},
		{"missing trace", `{}`, http.StatusBadRequest},
		{"bad version", `{"trace": {"version": 9, "nodes": 0, "edges": [], "observed": []}}`, http.StatusBadRequest},
		{"state/node mismatch", `{"trace": {"version": 1, "nodes": 2, "edges": [], "observed": [1]}}`, http.StatusBadRequest},
		{"self-loop edge", `{"trace": {"version": 1, "nodes": 2, "edges": [{"from":0,"to":0,"sign":1,"weight":0.5}], "observed": [1,0]}}`, http.StatusBadRequest},
		{"duplicate edge", `{"trace": {"version": 1, "nodes": 2, "edges": [{"from":0,"to":1,"sign":1,"weight":0.5},{"from":0,"to":1,"sign":-1,"weight":0.2}], "observed": [1,0]}}`, http.StatusBadRequest},
		{"negative k", `{"trace": {"version": 1, "nodes": 1, "edges": [], "observed": [1]}, "k": -1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/detect", "application/json", bytes.NewBufferString(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("non-JSON error body: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (error %q)", resp.StatusCode, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}

	// Unknown detector name.
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "psychic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown detector: status = %d, body %s", resp.StatusCode, body)
	}
}

// holdWorkers occupies every worker and fills the queue with blocking
// jobs; the returned release function unblocks them all.
func holdWorkers(t *testing.T, s *Server, jobs int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, jobs)
	for i := 0; i < jobs; i++ {
		// A just-submitted job may not have been dequeued by a worker yet,
		// so the queue can be momentarily full; retry briefly.
		deadline := time.Now().Add(2 * time.Second)
		for !s.pool.TrySubmit(func() { started <- struct{}{}; <-gate }) {
			if time.Now().After(deadline) {
				t.Fatalf("could not submit blocking job %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Wait until the workers demonstrably hold their share and the queue
	// has absorbed the rest, so callers see a deterministic pool state.
	running := jobs
	if w := s.pool.Workers(); w < running {
		running = w
	}
	for i := 0; i < running; i++ {
		select {
		case <-started:
		case <-time.After(2 * time.Second):
			t.Fatalf("blocking job %d never started", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Depth() < jobs-running {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", s.pool.Depth())
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestDetect429UnderSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := holdWorkers(t, s, 2) // 1 running + 1 queued = saturated
	defer release()

	tr := sampleTrace(t, 3, 50, 200, 2)
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("429 body not a JSON error: %s", body)
	}

	release()
	// After drain the same request succeeds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body = postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never recovered: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, mbody := getBody(t, ts, "/metrics")
	var snap Snapshot
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queue.Rejected < 1 {
		t.Errorf("rejected counter = %d, want >= 1", snap.Queue.Rejected)
	}
	if snap.Requests["detect"]["429"] < 1 {
		t.Errorf("no 429 in request counts: %v", snap.Requests)
	}
}

func TestDetectDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := holdWorkers(t, s, 1) // worker busy, queue open
	defer release()

	tr := sampleTrace(t, 4, 50, 200, 2)
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, TimeoutMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
}

func TestGracefulShutdownDrainsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdWorkers(t, s, 1)

	// A request sitting in the queue behind the held worker...
	tr := sampleTrace(t, 5, 50, 200, 2)
	type result struct {
		status int
		body   []byte
	}
	got := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr})
		got <- result{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// ...must still complete when shutdown starts before it runs.
	shutdownDone := make(chan error, 1)
	go func() {
		release()
		shutdownDone <- s.Shutdown(context.Background())
	}()
	select {
	case r := <-got:
		if r.status != http.StatusOK {
			t.Fatalf("queued request got %d during shutdown: %s", r.status, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}
	if s.pool.TrySubmit(func() {}) {
		t.Error("pool accepted work after shutdown")
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 6, 200, 1200, 4)

	var sim SimulateResponse
	resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{
		Trace: tr, Initiators: []int{0, 5}, States: []int8{1, -1}, Seed: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Infected < 2 {
		t.Errorf("infected = %d, want >= 2 (the initiators)", sim.Infected)
	}
	if len(sim.Observed) != tr.Nodes {
		t.Errorf("observed length = %d, want %d", len(sim.Observed), tr.Nodes)
	}
	if len(sim.SpreadCurve) == 0 || sim.SpreadCurve[0] != 2 {
		t.Errorf("spread curve should start at the 2 initiators: %v", sim.SpreadCurve)
	}

	// Re-simulate on the cached graph by hash only.
	var sim2 SimulateResponse
	resp, body = postJSON(t, ts, "/v1/simulate", SimulateRequest{
		GraphHash: sim.GraphHash, Initiators: []int{1}, Seed: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sim2); err != nil {
		t.Fatal(err)
	}
	if sim2.Cache != "hit" {
		t.Errorf("hash-only simulate cache = %q, want hit", sim2.Cache)
	}

	// The simulated snapshot feeds straight back into /v1/detect.
	detTrace := &trace.Trace{Version: trace.Version, Nodes: tr.Nodes, Edges: tr.Edges, Observed: sim.Observed}
	resp, body = postJSON(t, ts, "/v1/detect", DetectRequest{Trace: detTrace})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate->detect status = %d, body %s", resp.StatusCode, body)
	}
	var det DetectResponse
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if det.Cache != "hit" {
		t.Errorf("simulate->detect should reuse the cached graph, got %q", det.Cache)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 7, 50, 200, 2)

	// Unknown graph hash.
	resp, _ := postJSON(t, ts, "/v1/simulate", SimulateRequest{GraphHash: "deadbeef", Initiators: []int{0}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: status = %d, want 404", resp.StatusCode)
	}
	// Neither trace nor hash.
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Initiators: []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing source: status = %d, want 400", resp.StatusCode)
	}
	// Both trace and hash.
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr, GraphHash: "x", Initiators: []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("double source: status = %d, want 400", resp.StatusCode)
	}
	// No initiators.
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no initiators: status = %d, want 400", resp.StatusCode)
	}
	// Misaligned states.
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr, Initiators: []int{0, 1}, States: []int8{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misaligned states: status = %d, want 400", resp.StatusCode)
	}
	// Non-concrete state code.
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr, Initiators: []int{0}, States: []int8{9}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad state code: status = %d, want 400", resp.StatusCode)
	}
	// Initiator out of range (caught by the diffusion layer).
	resp, _ = postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr, Initiators: []int{tr.Nodes + 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range initiator: status = %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAlwaysAnswers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := holdWorkers(t, s, 2)
	defer release()
	resp, body := getBody(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, body %s", resp.StatusCode, body)
	}
}

func TestDetectAllMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 8, 200, 1200, 4)
	for _, method := range []string{"rid", "rid-tree", "rid-positive", "rumor-centrality", "jordan-center", "degree-max", "ensemble"} {
		t.Run(method, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: method})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var det DetectResponse
			if err := json.Unmarshal(body, &det); err != nil {
				t.Fatal(err)
			}
			if len(det.Initiators) == 0 {
				t.Fatal("no initiators")
			}
		})
	}
}

func TestPoolUnit(t *testing.T) {
	p := NewPool(2, 4)
	if p.Workers() != 2 || p.Capacity() != 4 {
		t.Fatalf("pool shape = %d/%d", p.Workers(), p.Capacity())
	}
	var mu sync.Mutex
	ran := 0
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		if !p.TrySubmit(func() { mu.Lock(); ran++; mu.Unlock(); wg.Done() }) {
			t.Fatalf("submit %d refused", i)
		}
	}
	wg.Wait()
	p.Close()
	p.Close() // idempotent
	if p.TrySubmit(func() {}) {
		t.Error("closed pool accepted a job")
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 4 {
		t.Errorf("ran = %d, want 4", ran)
	}
}

func TestGraphCacheLRU(t *testing.T) {
	c := NewGraphCache(2)
	traces := make([]*trace.Trace, 3)
	for i := range traces {
		traces[i] = sampleTrace(t, uint64(10+i), 20+i, 60, 1)
	}
	for i, tr := range traces[:2] {
		g, err := tr.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		c.Put(tr.NetworkHash(), g)
		if c.Len() != i+1 {
			t.Fatalf("len = %d", c.Len())
		}
	}
	// Touch the first so the second becomes LRU.
	if _, ok := c.Get(traces[0].NetworkHash()); !ok {
		t.Fatal("entry 0 missing")
	}
	g2, _ := traces[2].BuildGraph()
	c.Put(traces[2].NetworkHash(), g2)
	if c.Len() != 2 {
		t.Fatalf("len after eviction = %d", c.Len())
	}
	if _, ok := c.Get(traces[1].NetworkHash()); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(traces[0].NetworkHash()); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	h.observe(3 * time.Millisecond)
	h.observe(40 * time.Millisecond)
	h.observe(7 * time.Second)
	if h.Count != 3 {
		t.Fatalf("count = %d", h.Count)
	}
	// 3ms lands in the 5ms bucket (index 2) and all above.
	if h.Buckets[1] != 0 || h.Buckets[2] != 1 {
		t.Errorf("3ms misbucketed: %v", h.Buckets)
	}
	// 7s overflows every bound into +Inf only.
	last := len(h.Buckets) - 1
	if h.Buckets[last] != 3 || h.Buckets[last-1] != 2 {
		t.Errorf("overflow misbucketed: %v", h.Buckets)
	}
	if h.MaxMS < 6999 {
		t.Errorf("max = %g", h.MaxMS)
	}
	if m := h.MeanMS(); m <= 0 {
		t.Errorf("mean = %g", m)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.CountRequest("detect", 200+i%2)
				reg.Observe(fmt.Sprintf("label-%d", i%3), time.Millisecond)
				reg.CountCache(j%2 == 0)
				reg.CountRejected()
			}
		}(i)
	}
	wg.Wait()
	snap := reg.Snapshot(QueueSnapshot{}, 0, 0)
	var total int64
	for _, n := range snap.Requests["detect"] {
		total += n
	}
	if total != 800 {
		t.Errorf("request total = %d, want 800", total)
	}
	if snap.Queue.Rejected != 800 {
		t.Errorf("rejected = %d, want 800", snap.Queue.Rejected)
	}
	if snap.Cache.Hits+snap.Cache.Misses != 800 {
		t.Errorf("cache lookups = %d, want 800", snap.Cache.Hits+snap.Cache.Misses)
	}
}
