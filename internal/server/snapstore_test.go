package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace"
)

// jsonDetect posts one /v1/detect and decodes the response, failing the
// test on any non-200.
func jsonDetect(t *testing.T, ts *httptest.Server, tr *trace.Trace) DetectResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "rid", Beta: 0.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out DetectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotStoreWarmRestart builds a graph in one server (persisting
// its snapshot), then verifies a fresh server over the same directory
// warm-loads it — same results, cache state "warm", no rebuild.
func TestSnapshotStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace(t, 21, 250, 1500, 5)

	_, ts1 := newTestServer(t, Config{Snapshots: store})
	first := jsonDetect(t, ts1, tr)
	if first.Cache != "miss" {
		t.Fatalf("first detect cache = %q, want miss", first.Cache)
	}
	if _, err := os.Stat(filepath.Join(dir, tr.NetworkHash()+".ridg")); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	// "Restart": a brand-new server with an empty LRU over the same store.
	_, ts2 := newTestServer(t, Config{Snapshots: store})
	warm := jsonDetect(t, ts2, tr)
	if warm.Cache != "warm" {
		t.Fatalf("restarted detect cache = %q, want warm", warm.Cache)
	}
	if !reflect.DeepEqual(first.Initiators, warm.Initiators) {
		t.Fatal("warm-loaded graph changed the detection")
	}

	// graph_hash-addressed requests warm-load too.
	_, ts3 := newTestServer(t, Config{Snapshots: store})
	resp, body := postJSON(t, ts3, "/v1/simulate", SimulateRequest{
		GraphHash: first.GraphHash, Initiators: []int{0}, Seed: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate by hash: status = %d, body %s", resp.StatusCode, body)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Cache != "warm" {
		t.Fatalf("simulate cache = %q, want warm", sim.Cache)
	}
}

// TestSessionByHashWarmRestart checks a session opened by graph_hash
// resolves its network like every other route: after a restart the graph
// comes back from the snapshot store ("warm") rather than a 404.
func TestSessionByHashWarmRestart(t *testing.T) {
	store, err := NewSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace(t, 23, 200, 1200, 4)
	_, ts1 := newTestServer(t, Config{Snapshots: store})
	hash := jsonDetect(t, ts1, tr).GraphHash

	_, ts2 := newTestServer(t, Config{Snapshots: store})
	resp, body := postJSON(t, ts2, "/v1/sessions", SessionRequest{GraphHash: hash})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session by hash after restart: status = %d, body %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cache != "warm" || sr.GraphHash != hash || sr.Nodes != tr.Nodes {
		t.Fatalf("session = %+v, want cache warm on graph %s with %d nodes", sr, hash, tr.Nodes)
	}
}

// TestSnapshotStoreCorruptFallsBack corrupts the persisted snapshot and
// checks the server silently rebuilds from the trace (cache state "miss",
// identical results) and rewrites a good snapshot — a bad file is never
// served as a partial graph.
func TestSnapshotStoreCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := sampleTrace(t, 22, 200, 1200, 4)

	_, ts1 := newTestServer(t, Config{Snapshots: store})
	first := jsonDetect(t, ts1, tr)

	path := filepath.Join(dir, tr.NetworkHash()+".ridg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func() []byte{
		"truncated": func() []byte { return raw[:len(raw)/2] },
		"corrupted": func() []byte {
			bad := append([]byte(nil), raw...)
			bad[len(bad)/2] ^= 0xFF
			return bad
		},
	} {
		if err := os.WriteFile(path, mutate(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Snapshots: store})
		got := jsonDetect(t, ts, tr)
		if got.Cache != "miss" {
			t.Fatalf("%s: cache = %q, want miss (rebuild)", name, got.Cache)
		}
		if !reflect.DeepEqual(first.Initiators, got.Initiators) {
			t.Fatalf("%s: rebuild changed the detection", name)
		}
		// The rebuild re-persisted a loadable snapshot.
		if _, err := store.Load(tr.NetworkHash()); err != nil {
			t.Fatalf("%s: snapshot not repaired: %v", name, err)
		}
	}
}

// TestSnapshotWarmLoadVsEviction races warm loads against LRU eviction: a
// size-1 cache with two networks means every request for one evicts the
// other, so concurrent detects continuously re-load from the snapshot
// store while Put is evicting. Every response must be complete and
// correct — never a partial graph.
func TestSnapshotWarmLoadVsEviction(t *testing.T) {
	store, err := NewSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Snapshots: store, CacheSize: 1, Workers: 4})

	traces := []*trace.Trace{
		sampleTrace(t, 23, 150, 900, 3),
		sampleTrace(t, 24, 150, 900, 3),
	}
	want := make([]DetectResponse, len(traces))
	for i, tr := range traces {
		want[i] = jsonDetect(t, ts, tr) // also persists both snapshots
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				idx := (w + i) % 2
				resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: traces[idx], Detector: "rid", Beta: 0.3})
				if resp.StatusCode != http.StatusOK {
					errc <- &httpError{status: resp.StatusCode, msg: string(body)}
					return
				}
				var got DetectResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got.Initiators, want[idx].Initiators) || got.GraphHash != want[idx].GraphHash {
					errc <- &httpError{status: 500, msg: "warm-loaded detection diverged under eviction pressure"}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
