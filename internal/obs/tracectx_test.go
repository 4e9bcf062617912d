package obs

import (
	"context"
	"strings"
	"testing"
)

const (
	tpTraceID = "0af7651916cd43dd8448eb211c80319c"
	tpSpanID  = "00f067aa0ba902b7"
	tpValid   = "00-" + tpTraceID + "-" + tpSpanID + "-01"
)

func TestParseTraceparentValid(t *testing.T) {
	tc, err := ParseTraceparent(tpValid)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tpValid, err)
	}
	if tc.TraceID != tpTraceID || tc.SpanID != tpSpanID {
		t.Fatalf("ids = %q/%q, want %q/%q", tc.TraceID, tc.SpanID, tpTraceID, tpSpanID)
	}
	if !tc.Sampled() {
		t.Fatal("flags 01 should report sampled")
	}
	if !tc.Valid() {
		t.Fatal("parsed context should be valid")
	}
	if got := tc.Traceparent(); got != tpValid {
		t.Fatalf("round-trip = %q, want %q", got, tpValid)
	}
}

func TestParseTraceparentNotSampled(t *testing.T) {
	tc, err := ParseTraceparent("00-" + tpTraceID + "-" + tpSpanID + "-00")
	if err != nil {
		t.Fatal(err)
	}
	if tc.Sampled() {
		t.Fatal("flags 00 must not report sampled")
	}
}

func TestParseTraceparentRejections(t *testing.T) {
	cases := map[string]string{
		"version ff":            "ff-" + tpTraceID + "-" + tpSpanID + "-01",
		"uppercase version":     "0A-" + tpTraceID + "-" + tpSpanID + "-01",
		"all-zero trace id":     "00-00000000000000000000000000000000-" + tpSpanID + "-01",
		"all-zero span id":      "00-" + tpTraceID + "-0000000000000000-01",
		"uppercase trace id":    "00-" + strings.ToUpper(tpTraceID) + "-" + tpSpanID + "-01",
		"non-hex trace id":      "00-" + strings.Repeat("g", 32) + "-" + tpSpanID + "-01",
		"short":                 "00-abc-def-01",
		"empty":                 "",
		"truncated trace id":    "00-" + tpTraceID[:31] + "--" + tpSpanID + "-01",
		"misplaced delimiters":  "00_" + tpTraceID + "-" + tpSpanID + "-01",
		"uppercase flags":       "00-" + tpTraceID + "-" + tpSpanID + "-0F",
		"version 00 extra data": tpValid + "-extra",
		"future version glued":  "cc-" + tpTraceID + "-" + tpSpanID + "-01extra",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// A future version with version-00 field layout parses, ids intact.
	tc, err := ParseTraceparent("cc-" + tpTraceID + "-" + tpSpanID + "-01")
	if err != nil {
		t.Fatalf("bare future version: %v", err)
	}
	if tc.TraceID != tpTraceID || tc.SpanID != tpSpanID || !tc.Sampled() {
		t.Fatalf("future-version fields mangled: %+v", tc)
	}
	// Extra '-'-separated data passes through (the forward-compat rule).
	tc, err = ParseTraceparent("cc-" + tpTraceID + "-" + tpSpanID + "-01-what-the-future-holds")
	if err != nil {
		t.Fatalf("future version with extra data: %v", err)
	}
	if tc.TraceID != tpTraceID {
		t.Fatalf("trace id = %q, want %q", tc.TraceID, tpTraceID)
	}
}

func TestParseTraceState(t *testing.T) {
	got, err := ParseTraceState("congo=t61rcWkgMzE, rojo=00f067aa0ba902b7")
	if err != nil {
		t.Fatal(err)
	}
	if want := "congo=t61rcWkgMzE,rojo=00f067aa0ba902b7"; got != want {
		t.Fatalf("normalized = %q, want %q", got, want)
	}
	// Empty members from doubled or trailing commas are dropped.
	if got, err := ParseTraceState("a=1,,b=2,"); err != nil || got != "a=1,b=2" {
		t.Fatalf("empty members: got %q, %v", got, err)
	}
	// Vendor/tenant keys with @ are legal.
	if _, err := ParseTraceState("t61@vendor=alpha"); err != nil {
		t.Fatalf("@-key rejected: %v", err)
	}
}

func TestParseTraceStateRejections(t *testing.T) {
	many := make([]string, 33)
	for i := range many {
		many[i] = "k" + strings.Repeat("x", i+1) + "=v"
	}
	cases := map[string]string{
		"no equals":        "congot61rcWkgMzE",
		"uppercase key":    "Congo=1",
		"comma in value":   "a=b,c",
		"equals in value":  "a=b=c",
		"control value":    "a=b\x01",
		"long key":         strings.Repeat("k", 257) + "=v",
		"long value":       "a=" + strings.Repeat("v", 257),
		"over 32 members":  strings.Join(many, ","),
		"empty key member": "=v",
	}
	for name, h := range cases {
		if _, err := ParseTraceState(h); err == nil {
			t.Errorf("%s: ParseTraceState(%q) accepted, want error", name, h)
		}
	}
}

func TestDeriveSpanID(t *testing.T) {
	a := DeriveSpanID(tpSpanID, "tree_dp")
	if a != DeriveSpanID(tpSpanID, "tree_dp") {
		t.Fatal("DeriveSpanID must be deterministic")
	}
	if a == DeriveSpanID(tpSpanID, "components") {
		t.Fatal("different stage names must derive different span ids")
	}
	if a == DeriveSpanID("76054be1427f06aa", "tree_dp") {
		t.Fatal("different parents must derive different span ids")
	}
	if len(a) != 16 || !isLowerHex(a) {
		t.Fatalf("derived span id %q is not 16 lowercase hex chars", a)
	}
}

func TestNewTraceContext(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	if !tc.Sampled() {
		t.Fatal("minted root contexts are sampled")
	}
	if !validSpanID(NewSpanID()) {
		t.Fatal("NewSpanID must mint a valid span id")
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	if tc := TraceContextFrom(context.Background()); tc.Valid() {
		t.Fatal("empty context must yield an invalid trace context")
	}
	tc := NewTraceContext()
	ctx := WithTraceContext(context.Background(), tc)
	if got := TraceContextFrom(ctx); got != tc {
		t.Fatalf("round-trip = %+v, want %+v", got, tc)
	}
}

func TestTelemetrySlot(t *testing.T) {
	// All methods must be nil-safe so handlers publish unconditionally.
	var nilSlot *Telemetry
	nilSlot.SetRecorder(NewRecorder())
	nilSlot.SetDetail("x")
	nilSlot.AddLinks(SpanRef{TraceID: tpTraceID, SpanID: tpSpanID})
	if rec, links, detail := nilSlot.Snapshot(); rec != nil || links != nil || detail != "" {
		t.Fatal("nil slot snapshot must be empty")
	}
	if TelemetryFrom(context.Background()) != nil {
		t.Fatal("empty context must yield a nil slot")
	}

	slot := &Telemetry{}
	ctx := WithTelemetry(context.Background(), slot)
	rec := NewRecorder()
	TelemetryFrom(ctx).SetRecorder(rec)
	TelemetryFrom(ctx).SetDetail("detector=rid")
	TelemetryFrom(ctx).AddLinks(SpanRef{TraceID: tpTraceID, SpanID: tpSpanID})
	gotRec, links, detail := slot.Snapshot()
	if gotRec != rec || detail != "detector=rid" || len(links) != 1 {
		t.Fatalf("snapshot = (%p, %v, %q)", gotRec, links, detail)
	}
}
