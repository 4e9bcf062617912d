package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/diffusion"
)

// TestSimulateAllModels runs every registered diffusion model through
// /v1/simulate with its defaults and checks the response carries the model
// name, a sane cascade and the typed diffusion counters.
func TestSimulateAllModels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 11, 150, 900, 3)

	models := diffusion.Models()
	if len(models) != 7 {
		t.Fatalf("registered models = %v, want 7", models)
	}
	for _, name := range models {
		var sim SimulateResponse
		resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{
			Trace: tr, Initiators: []int{0, 1}, States: []int8{1, -1}, Model: name, Seed: 5,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q: status = %d, body %s", name, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sim); err != nil {
			t.Fatal(err)
		}
		if sim.Model != name {
			t.Errorf("model %q: response model = %q", name, sim.Model)
		}
		if sim.Infected < 2 {
			t.Errorf("model %q: infected = %d, want >= 2 (the initiators)", name, sim.Infected)
		}
		if len(sim.Observed) != tr.Nodes {
			t.Errorf("model %q: observed length = %d, want %d", name, len(sim.Observed), tr.Nodes)
		}
		if sim.Algo == nil || sim.Algo.Diffusion.Runs != 1 {
			t.Errorf("model %q: algo_counters missing or runs != 1: %+v", name, sim.Algo)
		}
	}
}

// TestSimulateModelParams exercises non-default params per model end to
// end, including the gossip exchange counter unique to pushpull.
func TestSimulateModelParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 12, 150, 900, 3)

	cases := []struct {
		model  string
		params map[string]any
	}{
		{"mfc", map[string]any{"alpha": 2.5, "disable_flip": true}},
		{"lt", map[string]any{"max_rounds": 4}},
		{"ltff", map[string]any{"bias": 3.0, "max_rounds": 50}},
		{"pushpull", map[string]any{"max_rounds": 40, "stall": 5}},
		{"sir", map[string]any{"beta": 1.5, "gamma": 0.5}},
		{"voter", map[string]any{"rounds": 10}},
	}
	for _, tc := range cases {
		var sim SimulateResponse
		resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{
			Trace: tr, Initiators: []int{2}, Model: tc.model, Params: tc.params, Seed: 9,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q params %v: status = %d, body %s", tc.model, tc.params, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sim); err != nil {
			t.Fatal(err)
		}
		if tc.model == "pushpull" && (sim.Algo == nil || sim.Algo.Diffusion.Exchanges == 0) {
			t.Errorf("pushpull: expected nonzero diffusion exchanges, got %+v", sim.Algo)
		}
	}
}

// TestSimulatePinnedErrors pins the /v1/simulate 400 surface byte-exact:
// clients parse these messages, so any drift is a breaking change.
func TestSimulatePinnedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 13, 40, 160, 2)

	cases := []struct {
		name string
		req  any
		want string
	}{
		{
			name: "unknown model",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "gossip"},
			want: `diffusion: unknown model "gossip" (registered: ic, lt, ltff, mfc, pushpull, sir, voter)`,
		},
		{
			name: "bad param type",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "mfc", Params: map[string]any{"alpha": "three"}},
			want: `diffusion: model "mfc": param "alpha": want number, got string`,
		},
		{
			name: "fractional integer param",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "voter", Params: map[string]any{"rounds": 2.5}},
			want: `diffusion: model "voter": param "rounds": want integer, got 2.5`,
		},
		{
			name: "unknown param",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "mfc", Params: map[string]any{"beta": 1}},
			want: `diffusion: model "mfc": unknown param "beta" (accepts: alpha, disable_flip)`,
		},
		{
			name: "param out of range",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "sir", Params: map[string]any{"gamma": 2}},
			want: `diffusion: invalid model coefficient: SIR Gamma must be in (0,1], got 2`,
		},
		{
			name: "ltff bias below one",
			req:  SimulateRequest{Trace: tr, Initiators: []int{0}, Model: "ltff", Params: map[string]any{"bias": 0.5}},
			want: `diffusion: invalid model coefficient: LTFF Bias must be >= 1, got 0.5`,
		},
		{
			name: "top-level alpha",
			req:  map[string]any{"trace": tr, "initiators": []int{0}, "alpha": 2},
			want: `invalid JSON: json: unknown field "alpha"`,
		},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, "/v1/simulate", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: bad error body %s: %v", tc.name, body, err)
		}
		if er.Error != tc.want {
			t.Errorf("%s: error = %q, want %q", tc.name, er.Error, tc.want)
		}
	}
}

// TestSimulateFlightRecordStages checks a simulate request's flight
// record carries its graph resolution and diffusion run as stages, next to
// the model's counters.
func TestSimulateFlightRecordStages(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 14, 150, 900, 3)
	resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{Trace: tr, Initiators: []int{0, 3}, Model: "sir", Seed: 21})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	recs := s.flight.Snapshot()
	if len(recs) != 1 || recs[0].Route != "/v1/simulate" {
		t.Fatalf("flight records = %+v, want the one simulate", recs)
	}
	fr := recs[0]
	if fr.Detail != "model=sir" {
		t.Errorf("detail = %q, want model=sir", fr.Detail)
	}
	for _, stage := range []string{"graph_build", "diffusion"} {
		if fr.Stages[stage].Count != 1 {
			t.Errorf("stage %q count = %d, want 1 (stages %+v)", stage, fr.Stages[stage].Count, fr.Stages)
		}
	}
	if fr.Algo == nil || fr.Algo.Diffusion.Runs != 1 {
		t.Errorf("algo = %+v, want one diffusion run", fr.Algo)
	}
}

// TestSimulateParallelismInvariance pins that simulate responses are
// independent of the server's pipeline fan-out setting for every model.
func TestSimulateParallelismInvariance(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Parallelism: 1})
	_, ts8 := newTestServer(t, Config{Parallelism: 8})
	tr := sampleTrace(t, 15, 150, 900, 3)

	for _, name := range diffusion.Models() {
		req := SimulateRequest{Trace: tr, Initiators: []int{1, 4}, States: []int8{1, -1}, Model: name, Seed: 3}
		var a, b SimulateResponse
		resp, body := postJSON(t, ts1, "/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q parallelism 1: status = %d, body %s", name, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, ts8, "/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q parallelism 8: status = %d, body %s", name, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Observed, b.Observed) || a.Rounds != b.Rounds || a.Infected != b.Infected {
			t.Errorf("model %q: simulate output differs between Parallelism 1 and 8", name)
		}
	}
}
