package obs

// This file implements W3C Trace Context (https://www.w3.org/TR/trace-context/)
// without dependencies: parsing and serializing the traceparent header
// (version, 128-bit trace id, 64-bit parent span id, flags) and minting
// fresh ids. The server middleware honors an inbound trace id, which logs,
// the flight recorder and OpenMetrics exemplars key on.

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// FlagSampled is the traceparent trace-flags bit meaning "the caller has
// recorded (or will record) this trace".
const FlagSampled byte = 0x01

// TraceContext is one hop of a W3C distributed trace: the 128-bit trace id
// shared by every span of the trace, the 64-bit id of this process's span,
// and the trace flags.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex characters, not all zero. On a parsed
	// inbound header this is the REMOTE parent's span id; the receiver
	// mints its own (NewSpanID) for the work it does.
	SpanID string
	// Flags is the trace-flags byte; bit 0 is the sampled flag.
	Flags byte
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
