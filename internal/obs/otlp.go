package obs

// This file hand-rolls the OTLP/JSON trace encoding
// (opentelemetry-proto's ExportTraceServiceRequest in its canonical JSON
// mapping) for the Recorder's span data, keeping go.mod dependency-free.
// Marshaling goes through fixed-field structs only — no maps — so field
// order is deterministic and the output is golden-testable byte for byte.
// 64-bit timestamps are emitted as decimal strings per the proto3 JSON
// mapping; trace and span ids as lowercase hex (the OTLP/JSON convention).

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// RequestTelemetry describes one completed request for span export: the
// trace identity minted by the middleware, the remote parent (when the
// request carried an inbound traceparent), the outcome, the pipeline
// recorder whose stage aggregates become child spans, and links to
// related spans (session event spans, the session root).
type RequestTelemetry struct {
	// Trace is this process's context: Trace.SpanID is the id of the root
	// span exported for the request.
	Trace TraceContext
	// ParentSpanID is the inbound remote parent span id ("" for a root).
	ParentSpanID string
	// Route names the server span; Detail lands in the request.detail
	// attribute when non-empty.
	Route  string
	Detail string
	// Start and End bound the request wall time.
	Start, End time.Time
	// HTTPStatus is the served status; Error the failure text if any.
	// Status ≥ 400 or a non-empty Error marks the span errored.
	HTTPStatus int
	Error      string
	// Rec supplies stage aggregates (child spans) and the typed counters
	// (span attributes). May be nil for routes without a pipeline.
	Rec *Recorder
	// Links attach other spans of this or other traces to the root span.
	Links []SpanRef
}

// Failed reports whether the request counts as failed for tail sampling
// (same predicate the flight recorder pins on).
func (rt *RequestTelemetry) Failed() bool {
	return rt.Error != "" || rt.HTTPStatus >= 400
}

// OTLP/JSON wire structs. Field order here IS the output order.

type otlpExportRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Links             []otlpLink     `json:"links,omitempty"`
	Status            otlpStatus     `json:"status"`
}

type otlpLink struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
}

type otlpStatus struct {
	Code    int    `json:"code,omitempty"` // 0 unset, 1 ok, 2 error
	Message string `json:"message,omitempty"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is the proto AnyValue JSON mapping; intValue is a decimal
// string per the 64-bit rule.
type otlpValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
}

const (
	otlpSpanKindInternal = 1
	otlpSpanKindServer   = 2

	otlpStatusOK    = 1
	otlpStatusError = 2
)

func strAttr(key, v string) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpValue{StringValue: &v}}
}

func intAttr(key string, v int64) otlpKeyValue {
	s := strconv.FormatInt(v, 10)
	return otlpKeyValue{Key: key, Value: otlpValue{IntValue: &s}}
}

func unixNano(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// canonicalStageOrder lays stage child spans out in pipeline execution
// order; stages outside the known set sort alphabetically after them.
var canonicalStageOrder = map[string]int{
	StageGraphBuild:   0,
	StageSnapshot:     1,
	StageReverse:      2,
	StageComponents:   3,
	StageArborescence: 4,
	StageTreeBuild:    5,
	StageBinarize:     6,
	StageTreeDP:       7,
}

// buildSpans flattens one request into its OTLP span list: a SERVER root
// span carrying route/status/counter attributes and links, followed by one
// INTERNAL child span per recorded stage. Stage spans are aggregates (a
// stage may have run many times across parallel workers), laid out
// sequentially from the request start with duration = the stage's summed
// wall time; their count and max land in attributes. Child span ids derive
// deterministically from the root span id and stage name.
func buildSpans(rt *RequestTelemetry) []otlpSpan {
	root := otlpSpan{
		TraceID:           rt.Trace.TraceID,
		SpanID:            rt.Trace.SpanID,
		ParentSpanID:      rt.ParentSpanID,
		Name:              rt.Route,
		Kind:              otlpSpanKindServer,
		StartTimeUnixNano: unixNano(rt.Start),
		EndTimeUnixNano:   unixNano(rt.End),
	}
	root.Attributes = append(root.Attributes, strAttr("http.route", rt.Route))
	root.Attributes = append(root.Attributes, intAttr("http.status_code", int64(rt.HTTPStatus)))
	if rt.Detail != "" {
		root.Attributes = append(root.Attributes, strAttr("request.detail", rt.Detail))
	}
	if rt.Failed() {
		root.Status = otlpStatus{Code: otlpStatusError, Message: rt.Error}
	} else {
		root.Status = otlpStatus{Code: otlpStatusOK}
	}
	for _, l := range rt.Links {
		root.Links = append(root.Links, otlpLink{TraceID: l.TraceID, SpanID: l.SpanID})
	}

	// The typed algorithm-depth counters become root-span attributes in
	// CounterSet.Each's canonical order.
	rt.Rec.CounterSetSnapshot().Each(func(name string, v int64) {
		root.Attributes = append(root.Attributes, intAttr("algo."+name, v))
	})

	spans := []otlpSpan{root}
	stages := rt.Rec.Stages()
	if len(stages) == 0 {
		return spans
	}
	names := SortedKeys(stages)
	sort.SliceStable(names, func(i, j int) bool {
		oi, iok := canonicalStageOrder[names[i]]
		oj, jok := canonicalStageOrder[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		}
		return names[i] < names[j]
	})
	cursor := rt.Start
	for _, name := range names {
		st := stages[name]
		end := cursor.Add(st.Total)
		spans = append(spans, otlpSpan{
			TraceID:           rt.Trace.TraceID,
			SpanID:            DeriveSpanID(rt.Trace.SpanID, name),
			ParentSpanID:      rt.Trace.SpanID,
			Name:              "stage." + name,
			Kind:              otlpSpanKindInternal,
			StartTimeUnixNano: unixNano(cursor),
			EndTimeUnixNano:   unixNano(end),
			Attributes: []otlpKeyValue{
				intAttr("stage.count", st.Count),
				intAttr("stage.max_us", int64(st.Max/time.Microsecond)),
			},
			Status: otlpStatus{Code: otlpStatusOK},
		})
		cursor = end
	}
	return spans
}

// MarshalOTLP encodes a batch of request telemetry as one OTLP/JSON
// ExportTraceServiceRequest: a single ResourceSpans identified by
// service.name, a single scope, and the flattened span lists of every
// request in order. The output is a deterministic function of the input
// (stable field ordering, derived child span ids), which the committed
// golden fixture pins.
func MarshalOTLP(service string, batch []*RequestTelemetry) ([]byte, error) {
	spans := make([]otlpSpan, 0, len(batch))
	for _, rt := range batch {
		spans = append(spans, buildSpans(rt)...)
	}
	req := otlpExportRequest{
		ResourceSpans: []otlpResourceSpans{{
			Resource: otlpResource{Attributes: []otlpKeyValue{
				strAttr("service.name", service),
			}},
			ScopeSpans: []otlpScopeSpans{{
				Scope: otlpScope{Name: "repro/internal/obs"},
				Spans: spans,
			}},
		}},
	}
	return json.Marshal(req)
}

// SpanCount returns how many OTLP spans rt flattens to (root + stages) —
// the unit the exporter's counters are denominated in.
func (rt *RequestTelemetry) SpanCount() int64 {
	return 1 + int64(len(rt.Rec.Stages()))
}
