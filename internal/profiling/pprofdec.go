package profiling

// A hand-rolled decoder for the pprof profile.proto wire format: no
// generated code, no dependency on github.com/google/pprof. It understands exactly the
// subset the continuous profiler needs — string table, functions,
// locations with (inline) lines, sample types, and samples with values,
// pprof labels, and location stacks — and hardens the parse against
// truncated or hostile input with bounds checks and a decompression cap.
//
// Field numbers from profile.proto (github.com/google/pprof):
//
//	Profile:  1 sample_type (ValueType), 2 sample (Sample),
//	          4 location (Location), 5 function (Function),
//	          6 string_table, 9 time_nanos, 10 duration_nanos,
//	          11 period_type (ValueType), 12 period
//	ValueType: 1 type (strtab idx), 2 unit (strtab idx)
//	Sample:   1 location_id (repeated uint64), 2 value (repeated int64),
//	          3 label (Label)
//	Label:    1 key (strtab idx), 2 str (strtab idx), 3 num, 4 num_unit
//	Location: 1 id, 4 line (repeated Line)
//	Line:     1 function_id, 2 line
//	Function: 1 id, 2 name (strtab idx)

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// maxProfileBytes caps the decompressed profile size. A 10s CPU window of
// this service decodes to well under 1MB; 64MB is a generous ceiling that
// still stops a corrupt gzip stream from ballooning memory.
const maxProfileBytes = 64 << 20

// ErrProfileTooLarge is returned when the decompressed profile exceeds
// maxProfileBytes.
var ErrProfileTooLarge = errors.New("profiling: decompressed profile exceeds size cap")

// ValueType names one column of Sample.Values, e.g. {Type: "cpu", Unit:
// "nanoseconds"}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one pprof sample: a call stack (leaf first, resolved to
// function names), one value per Profile.SampleTypes column, and the
// pprof string labels attached to the goroutine when the sample fired.
type Sample struct {
	Stack  []string          `json:"stack"`
	Values []int64           `json:"values"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	SampleTypes   []ValueType `json:"sample_types"`
	Samples       []Sample    `json:"samples"`
	TimeNanos     int64       `json:"time_nanos"`
	DurationNanos int64       `json:"duration_nanos"`
	Period        int64       `json:"period"`
	PeriodType    ValueType   `json:"period_type"`
}

// CPUValueIndex returns the index into Sample.Values of the
// cpu/nanoseconds column, or -1 if the profile has none.
func (p *Profile) CPUValueIndex() int {
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" && st.Unit == "nanoseconds" {
			return i
		}
	}
	return -1
}

// DecodeProfile decompresses and parses a gzipped pprof protobuf profile,
// as written by runtime/pprof.StartCPUProfile.
func DecodeProfile(data []byte) (*Profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profiling: gzip: %w", err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
	if err != nil {
		return nil, fmt.Errorf("profiling: gunzip: %w", err)
	}
	if len(raw) > maxProfileBytes {
		return nil, ErrProfileTooLarge
	}
	return decodeProfileMessage(raw)
}

// --- low-level protobuf reader ---

var errTruncated = errors.New("profiling: truncated protobuf message")

type pbReader struct {
	buf []byte
	pos int
}

func (r *pbReader) done() bool { return r.pos >= len(r.buf) }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.buf) {
			return 0, errTruncated
		}
		b := r.buf[r.pos]
		r.pos++
		if shift >= 64 {
			return 0, errors.New("profiling: varint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

// tag reads a field tag, returning field number and wire type.
func (r *pbReader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// skip consumes a field of the given wire type.
func (r *pbReader) skip(wire int) error {
	switch wire {
	case 0: // varint
		_, err := r.varint()
		return err
	case 1: // fixed64
		if r.pos+8 > len(r.buf) {
			return errTruncated
		}
		r.pos += 8
		return nil
	case 2: // length-delimited
		n, err := r.varint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)-r.pos) {
			return errTruncated
		}
		r.pos += int(n)
		return nil
	case 5: // fixed32
		if r.pos+4 > len(r.buf) {
			return errTruncated
		}
		r.pos += 4
		return nil
	default:
		return fmt.Errorf("profiling: unsupported wire type %d", wire)
	}
}

// bytesField reads a length-delimited field and returns the raw bytes
// (aliasing the underlying buffer).
func (r *pbReader) bytesField() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, errTruncated
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// repeatedUint64 appends one occurrence of a repeated uint64 field to dst,
// handling both packed (wire 2) and unpacked (wire 0) encodings — encoders
// may use either, and proto3 decoders must accept both.
func (r *pbReader) repeatedUint64(wire int, dst []uint64) ([]uint64, error) {
	switch wire {
	case 0:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	case 2:
		b, err := r.bytesField()
		if err != nil {
			return nil, err
		}
		inner := pbReader{buf: b}
		for !inner.done() {
			v, err := inner.varint()
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("profiling: repeated int field with wire type %d", wire)
	}
}

func (r *pbReader) repeatedInt64(wire int, dst []int64) ([]int64, error) {
	u, err := r.repeatedUint64(wire, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range u {
		dst = append(dst, int64(v))
	}
	return dst, nil
}

// --- message decoders ---

type rawValueType struct{ typ, unit uint64 }

type rawLabel struct{ key, str uint64 }

type rawSample struct {
	locs   []uint64
	values []int64
	labels []rawLabel
}

type rawLine struct{ funcID uint64 }

type rawLocation struct {
	id    uint64
	lines []rawLine
}

type rawFunction struct {
	id   uint64
	name uint64
}

func decodeValueType(b []byte) (rawValueType, error) {
	var vt rawValueType
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return vt, err
		}
		switch {
		case field == 1 && wire == 0:
			vt.typ, err = r.varint()
		case field == 2 && wire == 0:
			vt.unit, err = r.varint()
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return vt, err
		}
	}
	return vt, nil
}

func decodeLabel(b []byte) (rawLabel, error) {
	var l rawLabel
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return l, err
		}
		switch {
		case field == 1 && wire == 0:
			l.key, err = r.varint()
		case field == 2 && wire == 0:
			l.str, err = r.varint()
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return l, err
		}
	}
	return l, nil
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = r.repeatedUint64(wire, s.locs)
		case 2:
			s.values, err = r.repeatedInt64(wire, s.values)
		case 3:
			if wire != 2 {
				err = r.skip(wire)
				break
			}
			var lb []byte
			lb, err = r.bytesField()
			if err != nil {
				break
			}
			var l rawLabel
			l, err = decodeLabel(lb)
			if err == nil {
				s.labels = append(s.labels, l)
			}
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func decodeLine(b []byte) (rawLine, error) {
	var l rawLine
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return l, err
		}
		if field == 1 && wire == 0 {
			l.funcID, err = r.varint()
		} else {
			err = r.skip(wire)
		}
		if err != nil {
			return l, err
		}
	}
	return l, nil
}

func decodeLocation(b []byte) (rawLocation, error) {
	var loc rawLocation
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return loc, err
		}
		switch {
		case field == 1 && wire == 0:
			loc.id, err = r.varint()
		case field == 4 && wire == 2:
			var lb []byte
			lb, err = r.bytesField()
			if err != nil {
				break
			}
			var ln rawLine
			ln, err = decodeLine(lb)
			if err == nil {
				loc.lines = append(loc.lines, ln)
			}
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return loc, err
		}
	}
	return loc, nil
}

func decodeFunction(b []byte) (rawFunction, error) {
	var fn rawFunction
	r := pbReader{buf: b}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return fn, err
		}
		switch {
		case field == 1 && wire == 0:
			fn.id, err = r.varint()
		case field == 2 && wire == 0:
			fn.name, err = r.varint()
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return fn, err
		}
	}
	return fn, nil
}

func decodeProfileMessage(raw []byte) (*Profile, error) {
	var (
		strtab     []string
		valueTypes []rawValueType
		samples    []rawSample
		locations  []rawLocation
		functions  []rawFunction
		periodType rawValueType
		prof       = &Profile{}
	)
	r := pbReader{buf: raw}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch {
		case field == 1 && wire == 2: // sample_type
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			vt, err := decodeValueType(b)
			if err != nil {
				return nil, err
			}
			valueTypes = append(valueTypes, vt)
		case field == 2 && wire == 2: // sample
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			s, err := decodeSample(b)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case field == 4 && wire == 2: // location
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			loc, err := decodeLocation(b)
			if err != nil {
				return nil, err
			}
			locations = append(locations, loc)
		case field == 5 && wire == 2: // function
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			fn, err := decodeFunction(b)
			if err != nil {
				return nil, err
			}
			functions = append(functions, fn)
		case field == 6 && wire == 2: // string_table
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(b))
		case field == 9 && wire == 0:
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			prof.TimeNanos = int64(v)
		case field == 10 && wire == 0:
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			prof.DurationNanos = int64(v)
		case field == 11 && wire == 2:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			periodType, err = decodeValueType(b)
			if err != nil {
				return nil, err
			}
		case field == 12 && wire == 0:
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			prof.Period = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(strtab)) {
			return "", fmt.Errorf("profiling: string table index %d out of range (%d entries)", idx, len(strtab))
		}
		return strtab[idx], nil
	}

	// Resolve value types.
	for _, vt := range valueTypes {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		prof.SampleTypes = append(prof.SampleTypes, ValueType{Type: t, Unit: u})
	}
	{
		t, err := str(periodType.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(periodType.unit)
		if err != nil {
			return nil, err
		}
		prof.PeriodType = ValueType{Type: t, Unit: u}
	}

	// Resolve each location id to the name of its innermost function
	// (line[0] is the deepest inline frame, matching pprof semantics).
	funcName := make(map[uint64]string, len(functions))
	for _, fn := range functions {
		name, err := str(fn.name)
		if err != nil {
			return nil, err
		}
		funcName[fn.id] = name
	}
	locName := make(map[uint64]string, len(locations))
	for _, loc := range locations {
		name := "<unknown>"
		if len(loc.lines) > 0 {
			if n, ok := funcName[loc.lines[0].funcID]; ok {
				name = n
			}
		}
		locName[loc.id] = name
	}

	// Resolve samples.
	prof.Samples = make([]Sample, 0, len(samples))
	for _, rs := range samples {
		s := Sample{Values: rs.values}
		if len(rs.locs) > 0 {
			s.Stack = make([]string, len(rs.locs))
			for i, id := range rs.locs {
				name, ok := locName[id]
				if !ok {
					name = "<unknown>"
				}
				s.Stack[i] = name
			}
		}
		if len(rs.labels) > 0 {
			s.Labels = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				// str == 0 means a numeric label; skip those.
				if l.str == 0 {
					continue
				}
				k, err := str(l.key)
				if err != nil {
					return nil, err
				}
				v, err := str(l.str)
				if err != nil {
					return nil, err
				}
				s.Labels[k] = v
			}
			if len(s.Labels) == 0 {
				s.Labels = nil
			}
		}
		prof.Samples = append(prof.Samples, s)
	}
	return prof, nil
}
