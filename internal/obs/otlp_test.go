package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the OTLP golden fixture")

// goldenTelemetry builds a fully deterministic request telemetry: fixed
// trace identity, fixed timestamps, stage aggregates merged directly
// (bypassing the wall clock), typed algorithm counters and a span link — every feature the OTLP encoder maps.
func goldenTelemetry() *RequestTelemetry {
	rec := NewRecorder()
	rec.merge(StageGraphBuild, StageStat{Count: 1, Total: 40 * time.Millisecond, Max: 40 * time.Millisecond})
	rec.merge(StageComponents, StageStat{Count: 3, Total: 12 * time.Millisecond, Max: 7 * time.Millisecond})
	rec.merge(StageTreeDP, StageStat{Count: 5, Total: 90 * time.Millisecond, Max: 31 * time.Millisecond})
	rec.merge("custom_stage", StageStat{Count: 1, Total: 2 * time.Millisecond, Max: 2 * time.Millisecond})
	rec.MergeCounterSet(&CounterSet{
		Arbor:   ArborCounters{TarjanSolves: 3, HeapMelds: 421},
		Cascade: CascadeCounters{InfectedNodes: 128, Trees: 5},
		ISOMIT:  ISOMITCounters{PenalizedSolves: 5, DPCells: 9000},
	})
	start := time.Unix(1700000000, 0).UTC()
	return &RequestTelemetry{
		Trace: TraceContext{
			TraceID: "0af7651916cd43dd8448eb211c80319c",
			SpanID:  "00f067aa0ba902b7",
			Flags:   FlagSampled,
		},
		ParentSpanID: "b7ad6b7169203331",
		Route:        "/v1/detect",
		Detail:       "detector=rid",
		Start:        start,
		End:          start.Add(250 * time.Millisecond),
		HTTPStatus:   200,
		Rec:          rec,
		Links: []SpanRef{
			{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "0102030405060708"},
		},
	}
}

// TestMarshalOTLPGolden pins the exporter's wire format byte for byte
// against the committed fixture: field order, id casing, 64-bit values as
// decimal strings, derived child span ids and canonical stage ordering are
// all load-bearing for collectors and for replaying NDJSON captures.
// Regenerate deliberately with: go test ./internal/obs -run Golden -update
func TestMarshalOTLPGolden(t *testing.T) {
	got, err := MarshalOTLP("ridserve", []*RequestTelemetry{goldenTelemetry()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "otlp_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("OTLP output drifted from golden fixture.\ngot:  %s\nwant: %s", got, want)
	}
}

func TestMarshalOTLPDeterministic(t *testing.T) {
	a, err := MarshalOTLP("ridserve", []*RequestTelemetry{goldenTelemetry()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalOTLP("ridserve", []*RequestTelemetry{goldenTelemetry()})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("MarshalOTLP must be a pure function of its input")
	}
}

// otlpWire mirrors just enough of the OTLP/JSON shape to assert structure
// without depending on the encoder's internal types.
type otlpWire struct {
	ResourceSpans []struct {
		Resource struct {
			Attributes []struct {
				Key   string `json:"key"`
				Value struct {
					StringValue string `json:"stringValue"`
					IntValue    string `json:"intValue"`
				} `json:"value"`
			} `json:"attributes"`
		} `json:"resource"`
		ScopeSpans []struct {
			Scope struct {
				Name string `json:"name"`
			} `json:"scope"`
			Spans []struct {
				TraceID      string `json:"traceId"`
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				Kind         int    `json:"kind"`
				Start        string `json:"startTimeUnixNano"`
				End          string `json:"endTimeUnixNano"`
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
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

func TestMarshalOTLPStructure(t *testing.T) {
	rt := goldenTelemetry()
	raw, err := MarshalOTLP("ridserve", []*RequestTelemetry{rt})
	if err != nil {
		t.Fatal(err)
	}
	var wire otlpWire
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	spans := wire.ResourceSpans[0].ScopeSpans[0].Spans
	if want := int(rt.SpanCount()); len(spans) != want {
		t.Fatalf("got %d spans, want %d (root + stages)", len(spans), want)
	}

	root := spans[0]
	if root.Kind != otlpSpanKindServer {
		t.Fatalf("root kind = %d, want SERVER (%d)", root.Kind, otlpSpanKindServer)
	}
	if root.TraceID != rt.Trace.TraceID || root.SpanID != rt.Trace.SpanID {
		t.Fatalf("root ids = %s/%s", root.TraceID, root.SpanID)
	}
	if root.ParentSpanID != rt.ParentSpanID {
		t.Fatalf("root parent = %q, want inbound remote parent %q", root.ParentSpanID, rt.ParentSpanID)
	}
	if root.Status.Code != otlpStatusOK {
		t.Fatalf("root status = %d, want OK", root.Status.Code)
	}
	if len(root.Links) != 1 || root.Links[0].TraceID != rt.Links[0].TraceID {
		t.Fatalf("root links = %+v", root.Links)
	}
	attrs := map[string]string{}
	for _, a := range root.Attributes {
		if a.Value.IntValue != "" {
			attrs[a.Key] = a.Value.IntValue
		} else {
			attrs[a.Key] = a.Value.StringValue
		}
	}
	for key, want := range map[string]string{
		"http.route":                   "/v1/detect",
		"http.status_code":             "200",
		"request.detail":               "detector=rid",
		"algo.cascade_infected_nodes":  "128",
		"algo.cascade_trees":           "5",
		"algo.arbor_tarjan_solves":     "3",
		"algo.arbor_heap_melds":        "421",
		"algo.isomit_dp_cells":         "9000",
		"algo.isomit_penalized_solves": "5",
	} {
		if attrs[key] != want {
			t.Errorf("root attr %s = %q, want %q", key, attrs[key], want)
		}
	}

	// Stage children: canonical pipeline order first, unknown stages after,
	// every one an INTERNAL child of the root with a derived span id.
	wantOrder := []string{"stage.graph_build", "stage.components", "stage.tree_dp", "stage.custom_stage"}
	for i, child := range spans[1:] {
		if child.Name != wantOrder[i] {
			t.Errorf("child %d = %s, want %s", i, child.Name, wantOrder[i])
		}
		if child.Kind != otlpSpanKindInternal {
			t.Errorf("child %s kind = %d, want INTERNAL", child.Name, child.Kind)
		}
		if child.ParentSpanID != root.SpanID {
			t.Errorf("child %s parent = %s, want root %s", child.Name, child.ParentSpanID, root.SpanID)
		}
		if child.SpanID != DeriveSpanID(root.SpanID, child.Name[len("stage."):]) {
			t.Errorf("child %s span id not derived from root", child.Name)
		}
		if child.TraceID != root.TraceID {
			t.Errorf("child %s trace id = %s", child.Name, child.TraceID)
		}
	}
}

func TestMarshalOTLPErrorStatus(t *testing.T) {
	rt := goldenTelemetry()
	rt.HTTPStatus = 500
	rt.Error = "queue full"
	raw, err := MarshalOTLP("ridserve", []*RequestTelemetry{rt})
	if err != nil {
		t.Fatal(err)
	}
	var wire otlpWire
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	root := wire.ResourceSpans[0].ScopeSpans[0].Spans[0]
	if root.Status.Code != otlpStatusError || root.Status.Message != "queue full" {
		t.Fatalf("error status = %+v", root.Status)
	}
}

func TestRequestTelemetryFailed(t *testing.T) {
	ok := &RequestTelemetry{HTTPStatus: 200}
	if ok.Failed() {
		t.Fatal("200 with no error must not be failed")
	}
	for _, rt := range []*RequestTelemetry{
		{HTTPStatus: 400},
		{HTTPStatus: 503},
		{HTTPStatus: 200, Error: "late failure"},
	} {
		if !rt.Failed() {
			t.Fatalf("%+v must be failed", rt)
		}
	}
}
