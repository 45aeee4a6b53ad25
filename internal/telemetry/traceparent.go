package telemetry

import (
	"encoding/hex"
	"fmt"
)

// TraceID is the 16-byte W3C trace identifier. The zero value means "no
// trace".
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier. The zero value means
// "no span".
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex digits ("" for the zero ID,
// which W3C Trace Context declares invalid).
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// String renders the ID as 16 lowercase hex digits ("" for the zero ID).
func (id SpanID) String() string {
	if id.IsZero() {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// FlagSampled is the W3C trace-flags bit this tracer always sets: every
// retained trace is recorded.
const FlagSampled byte = 0x01

// ParseTraceID parses a 32-hex-digit trace ID (as it appears in
// /debug/traces/<id> URLs and X-Adassure-Trace headers).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("telemetry: trace id must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("telemetry: trace id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("telemetry: all-zero trace id is invalid")
	}
	return id, nil
}

// ParseTraceParent parses a W3C Trace Context traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00    -  32 hex    -   16 hex    -   2 hex
//
// Every field is lowercase hex (the spec's HEXDIGLC). Unknown (non-00)
// versions are accepted as long as the prefix matches the version-00
// layout and any further fields follow a "-", per the spec's
// forward-compatibility rule; version 0xff and all-zero IDs are rejected.
func ParseTraceParent(h string) (TraceID, SpanID, byte, error) {
	var (
		tid   TraceID
		sid   SpanID
		flags [1]byte
	)
	if len(h) < 55 {
		return tid, sid, 0, fmt.Errorf("telemetry: traceparent too short (%d bytes)", len(h))
	}
	for i := 0; i < 55; i++ {
		switch c := h[i]; {
		case i == 2 || i == 35 || i == 52:
			if c != '-' {
				return tid, sid, 0, fmt.Errorf("telemetry: traceparent %q: bad field separators", h)
			}
		case (c < '0' || c > '9') && (c < 'a' || c > 'f'):
			return tid, sid, 0, fmt.Errorf("telemetry: traceparent %q: byte %d is not lowercase hex", h, i)
		}
	}
	switch {
	case h[:2] == "ff":
		return tid, sid, 0, fmt.Errorf("telemetry: traceparent version ff is invalid")
	case h[:2] == "00" && len(h) != 55:
		return tid, sid, 0, fmt.Errorf("telemetry: version-00 traceparent must be 55 bytes, got %d", len(h))
	case len(h) > 55 && h[55] != '-':
		return tid, sid, 0, fmt.Errorf("telemetry: traceparent %q: trailing data must follow a '-'", h)
	}
	// The fields were checked as hex above, so decoding cannot fail.
	_, _ = hex.Decode(tid[:], []byte(h[3:35]))
	_, _ = hex.Decode(sid[:], []byte(h[36:52]))
	_, _ = hex.Decode(flags[:], []byte(h[53:55]))
	if tid.IsZero() {
		return tid, sid, 0, fmt.Errorf("telemetry: all-zero trace-id is invalid")
	}
	if sid.IsZero() {
		return tid, sid, 0, fmt.Errorf("telemetry: all-zero parent-id is invalid")
	}
	return tid, sid, flags[0], nil
}

// FormatTraceParent renders a version-00 traceparent header value.
func FormatTraceParent(trace TraceID, span SpanID, flags byte) string {
	var buf [55]byte
	buf[0], buf[1] = '0', '0'
	buf[2] = '-'
	hex.Encode(buf[3:35], trace[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], span[:])
	buf[52] = '-'
	hex.Encode(buf[53:55], []byte{flags})
	return string(buf[:])
}
