package obs

// This file implements W3C Trace Context (https://www.w3.org/TR/trace-context/)
// without dependencies: parsing and serializing the traceparent header
// (version, 128-bit trace id, 64-bit parent span id, flags), lightweight
// tracestate validation, and the context plumbing the server middleware
// uses to honor inbound distributed-trace context and link spans across
// replicas.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// FlagSampled is the traceparent trace-flags bit meaning "the caller has
// recorded (or will record) this trace".
const FlagSampled byte = 0x01

// TraceContext is one hop of a W3C distributed trace: the 128-bit trace id
// shared by every span of the trace, the 64-bit id of this process's span,
// the trace flags, and the vendor tracestate carried alongside.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex characters, not all zero. On a parsed
	// inbound header this is the REMOTE parent's span id; the receiver
	// mints its own (NewSpanID) for the work it does.
	SpanID string
	// Flags is the trace-flags byte; bit 0 is the sampled flag.
	Flags byte
	// TraceState is the validated tracestate header value, "" when absent
	// (a malformed tracestate is dropped without invalidating the
	// traceparent, per spec).
	TraceState string
}

// Valid reports whether the context carries well-formed non-zero ids.
func (tc TraceContext) Valid() bool {
	return ValidTraceID(tc.TraceID) && validSpanID(tc.SpanID)
}

// Sampled reports the sampled flag.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// Traceparent serializes the context as a version-00 traceparent header.
func (tc TraceContext) Traceparent() string {
	var b strings.Builder
	b.Grow(55)
	b.WriteString("00-")
	b.WriteString(tc.TraceID)
	b.WriteByte('-')
	b.WriteString(tc.SpanID)
	b.WriteByte('-')
	b.WriteString(hex.EncodeToString([]byte{tc.Flags}))
	return b.String()
}

// Ref returns the context's span reference (for span links).
func (tc TraceContext) Ref() SpanRef { return SpanRef{TraceID: tc.TraceID, SpanID: tc.SpanID} }

// SpanRef names one span of one trace — the unit of OTLP span links.
type SpanRef struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// errTraceparent wraps every parse rejection so callers can branch on the
// class without string matching.
var errTraceparent = errors.New("obs: invalid traceparent")

// ParseTraceparent parses a traceparent header per the W3C spec:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//
// with every field lowercase hex. Version 0xff is forbidden; all-zero
// trace or span ids are forbidden. Headers carrying an unknown FUTURE
// version are accepted as long as the four version-00 fields parse and any
// extra content is separated by a further "-" (the spec's forward-
// compatibility rule) — the ids pass through unmodified, so a newer
// client's trace survives an older server. Version 00 must be exactly the
// four fields.
func ParseTraceparent(h string) (TraceContext, error) {
	fail := func(format string, args ...any) (TraceContext, error) {
		return TraceContext{}, fmt.Errorf("%w: %s", errTraceparent, fmt.Sprintf(format, args...))
	}
	if len(h) < 55 {
		return fail("%d bytes, want at least 55", len(h))
	}
	if !isLowerHex(h[0:2]) {
		return fail("version %q not lowercase hex", h[0:2])
	}
	if h[0:2] == "ff" {
		return fail("version ff is forbidden")
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return fail("field delimiters misplaced")
	}
	traceID, spanID, flagsHex := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(traceID) {
		return fail("trace-id %q not 32 lowercase hex chars", traceID)
	}
	if allZero(traceID) {
		return fail("trace-id is all zeros")
	}
	if !isLowerHex(spanID) {
		return fail("parent-id %q not 16 lowercase hex chars", spanID)
	}
	if allZero(spanID) {
		return fail("parent-id is all zeros")
	}
	if !isLowerHex(flagsHex) {
		return fail("trace-flags %q not lowercase hex", flagsHex)
	}
	switch {
	case len(h) == 55:
	case h[0:2] == "00":
		return fail("version 00 must be exactly 55 bytes, got %d", len(h))
	case h[55] != '-':
		return fail("future-version data must be '-'-separated")
	}
	flags, _ := hex.DecodeString(flagsHex)
	return TraceContext{TraceID: traceID, SpanID: spanID, Flags: flags[0]}, nil
}

// ParseTraceState validates a tracestate header: at most 32 comma-
// separated list members, each `key=value` with the spec's key alphabet
// (lowercase alphanumerics plus _ - * / @, 256 bytes max) and a printable
// value without comma or equals (256 bytes max). Empty members (from
// trailing or doubled commas) are dropped. Returns the normalized header
// (members re-joined with ",") or an error; callers drop a malformed
// tracestate and keep the traceparent.
func ParseTraceState(h string) (string, error) {
	var members []string
	for _, m := range strings.Split(h, ",") {
		m = strings.Trim(m, " \t")
		if m == "" {
			continue
		}
		key, val, ok := strings.Cut(m, "=")
		if !ok {
			return "", fmt.Errorf("obs: tracestate member %q has no '='", m)
		}
		if len(key) == 0 || len(key) > 256 || !validTraceStateKey(key) {
			return "", fmt.Errorf("obs: tracestate key %q invalid", key)
		}
		if len(val) > 256 || !validTraceStateValue(val) {
			return "", fmt.Errorf("obs: tracestate value for %q invalid", key)
		}
		members = append(members, key+"="+val)
	}
	if len(members) > 32 {
		return "", fmt.Errorf("obs: tracestate has %d members, max 32", len(members))
	}
	return strings.Join(members, ","), nil
}

func validTraceStateKey(key string) bool {
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '*', c == '/', c == '@':
		default:
			return false
		}
	}
	return true
}

func validTraceStateValue(val string) bool {
	for i := 0; i < len(val); i++ {
		c := val[i]
		if c < 0x20 || c > 0x7e || c == ',' || c == '=' {
			return false
		}
	}
	return true
}

// ValidTraceID reports whether id is a W3C trace id: exactly 32 lowercase
// hex characters, not all zero.
func ValidTraceID(id string) bool {
	return len(id) == 32 && isLowerHex(id) && !allZero(id)
}

func validSpanID(id string) bool {
	return len(id) == 16 && isLowerHex(id) && !allZero(id)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// NewTraceContext mints a fresh sampled root context: random 128-bit
// trace id and 64-bit span id.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Flags: FlagSampled}
}

// NewSpanID returns a random 16-hex-char span id.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failure yields a fixed, visibly wrong id rather
		// than an unserviceable request. The last byte is set so the id
		// is never all-zero (which W3C forbids).
		for i := range b {
			b[i] = 0
		}
	}
	if allZeroBytes(b) {
		b[n-1] = 1
	}
	return hex.EncodeToString(b)
}

func allZeroBytes(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// DeriveSpanID derives a child span id from a parent span id and a stable
// name — deterministic so re-marshaling the same request telemetry yields
// identical OTLP output (golden-testable), collision-safe in practice via
// SHA-256.
func DeriveSpanID(parentSpanID, name string) string {
	sum := sha256.Sum256([]byte(parentSpanID + "/" + name))
	if allZeroBytes(sum[:8]) {
		sum[7] = 1
	}
	return hex.EncodeToString(sum[:8])
}

type traceCtxKey struct{}

// WithTraceContext attaches a W3C trace context to ctx.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom returns the context's trace context; the zero value
// (Valid() == false) when none is attached.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// Telemetry is the per-request mutable slot the serving middleware places
// in the context so layers below (handlers, ingest sessions) can hand
// their pipeline Recorder, span links and request detail back up for
// export after the response is written. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Telemetry struct {
	mu     sync.Mutex
	rec    *Recorder
	links  []SpanRef
	detail string
}

// SetRecorder publishes the request's pipeline recorder for export.
func (t *Telemetry) SetRecorder(r *Recorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec = r
	t.mu.Unlock()
}

// SetDetail publishes free-form request context (detector name, work
// accounting) that becomes a span attribute.
func (t *Telemetry) SetDetail(d string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.detail = d
	t.mu.Unlock()
}

// AddLinks appends span links (e.g. the ingest-session event spans that
// dirtied the components a session detect re-solved).
func (t *Telemetry) AddLinks(refs ...SpanRef) {
	if t == nil || len(refs) == 0 {
		return
	}
	t.mu.Lock()
	t.links = append(t.links, refs...)
	t.mu.Unlock()
}

// Snapshot returns the published recorder, links and detail.
func (t *Telemetry) Snapshot() (*Recorder, []SpanRef, string) {
	if t == nil {
		return nil, nil, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec, append([]SpanRef(nil), t.links...), t.detail
}

type telemetryKey struct{}

// WithTelemetry attaches a telemetry slot to ctx.
func WithTelemetry(ctx context.Context, t *Telemetry) context.Context {
	return context.WithValue(ctx, telemetryKey{}, t)
}

// TelemetryFrom returns the context's telemetry slot, or nil (on which
// every method no-ops) when none is attached.
func TelemetryFrom(ctx context.Context) *Telemetry {
	t, _ := ctx.Value(telemetryKey{}).(*Telemetry)
	return t
}
