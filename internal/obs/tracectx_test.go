package obs

import (
	"strings"
	"testing"
)

const (
	tpTraceID = "0af7651916cd43dd8448eb211c80319c"
	tpSpanID  = "00f067aa0ba902b7"
	tpValid   = "00-" + tpTraceID + "-" + tpSpanID + "-01"
)

// validID reports whether id is a W3C trace id (n = 32) or span id
// (n = 16): exactly n lowercase hex characters, not all zero.
func validID(id string, n int) bool {
	return len(id) == n && isLowerHex(id) && !allZero(id)
}

// validContext reports whether tc carries a well-formed trace and span id.
func validContext(tc TraceContext) bool {
	return validID(tc.TraceID, 32) && validID(tc.SpanID, 16)
}

func TestParseTraceparentValid(t *testing.T) {
	tc, err := ParseTraceparent(tpValid)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tpValid, err)
	}
	if tc.TraceID != tpTraceID || tc.SpanID != tpSpanID {
		t.Fatalf("ids = %q/%q, want %q/%q", tc.TraceID, tc.SpanID, tpTraceID, tpSpanID)
	}
	if tc.Flags&FlagSampled == 0 {
		t.Fatal("flags 01 should report sampled")
	}
	if !validContext(tc) {
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
	if tc.Flags&FlagSampled != 0 {
		t.Fatal("flags 00 must not report sampled")
	}
}

// traceparentRejections are malformed headers ParseTraceparent must
// refuse; FuzzTraceparent seeds its corpus from them too.
var traceparentRejections = []struct{ name, header string }{
	{"version ff", "ff-" + tpTraceID + "-" + tpSpanID + "-01"},
	{"uppercase version", "0A-" + tpTraceID + "-" + tpSpanID + "-01"},
	{"all-zero trace id", "00-00000000000000000000000000000000-" + tpSpanID + "-01"},
	{"all-zero span id", "00-" + tpTraceID + "-0000000000000000-01"},
	{"uppercase trace id", "00-" + strings.ToUpper(tpTraceID) + "-" + tpSpanID + "-01"},
	{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-" + tpSpanID + "-01"},
	{"short", "00-abc-def-01"},
	{"empty", ""},
	{"truncated trace id", "00-" + tpTraceID[:31] + "--" + tpSpanID + "-01"},
	{"misplaced delimiters", "00_" + tpTraceID + "-" + tpSpanID + "-01"},
	{"uppercase flags", "00-" + tpTraceID + "-" + tpSpanID + "-0F"},
	{"version 00 extra data", tpValid + "-extra"},
	{"future version glued", "cc-" + tpTraceID + "-" + tpSpanID + "-01extra"},
}

// traceparentFutureVersions are headers of an unknown future version that
// ParseTraceparent accepts with the version-00 fields intact.
var traceparentFutureVersions = []string{
	"cc-" + tpTraceID + "-" + tpSpanID + "-01",
	"cc-" + tpTraceID + "-" + tpSpanID + "-01-what-the-future-holds",
}

func TestParseTraceparentRejections(t *testing.T) {
	for _, c := range traceparentRejections {
		if _, err := ParseTraceparent(c.header); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", c.name, c.header)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// A future version with version-00 field layout parses, ids intact;
	// extra '-'-separated data passes through (the forward-compat rule).
	for _, h := range traceparentFutureVersions {
		tc, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if tc.TraceID != tpTraceID || tc.SpanID != tpSpanID || tc.Flags&FlagSampled == 0 {
			t.Fatalf("future-version fields mangled: %+v", tc)
		}
	}
}

// maxTraceparentAllocs bounds the allocations of one ParseTraceparent call
// (an accepted one re-serialized and parsed again included); the bound
// must not grow with the header's length.
const maxTraceparentAllocs = 8

// FuzzTraceparent holds the one inbound header decoder to three rules: a
// rejected header never panics, an accepted one round-trips through
// Traceparent (a future version re-serializes as 00 and parses back to the
// same context), and a call costs at most maxTraceparentAllocs
// allocations.
func FuzzTraceparent(f *testing.F) {
	f.Add(tpValid)
	f.Add("00-" + tpTraceID + "-" + tpSpanID + "-00")
	for _, h := range traceparentFutureVersions {
		f.Add(h)
	}
	for _, c := range traceparentRejections {
		f.Add(c.header)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, err := ParseTraceparent(h)
		if err == nil {
			if !validContext(tc) {
				t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, tc)
			}
			back, err := ParseTraceparent(tc.Traceparent())
			if err != nil || back != tc {
				t.Fatalf("ParseTraceparent(%q) = %+v does not round-trip: %+v, %v", h, tc, back, err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if tc, err := ParseTraceparent(h); err == nil {
				_, _ = ParseTraceparent(tc.Traceparent())
			}
		})
		if allocs > maxTraceparentAllocs {
			t.Fatalf("ParseTraceparent(%q) costs %v allocations, want at most %d", h, allocs, maxTraceparentAllocs)
		}
	})
}

func TestNewTraceContext(t *testing.T) {
	tc := NewTraceContext()
	if !validContext(tc) {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	if tc.Flags&FlagSampled == 0 {
		t.Fatal("minted root contexts are sampled")
	}
	if !validID(NewSpanID(), 16) {
		t.Fatal("NewSpanID must mint a valid span id")
	}
}
