package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary trace format ("RIDT" v1)
//
// A compact little-endian encoding of the same instance the JSON schema
// carries, negotiated on the HTTP wire via Content-Type
// application/x-rid-trace. Scaled-Epinions traces are ~6× smaller and
// decode ~10× faster than their JSON form — the decoder is a single
// sequential pass with no field-name scanning or float parsing.
//
//	offset  size      field
//	0       4         magic "RIDT"
//	4       2         version (LE u16, currently 1)
//	6       2         flags: bit0 rounds, bit1 seeds, bit2 name, bit3 seed states
//	8       4         node count (LE u32)
//	12      4         edge count (LE u32)
//	[name]  2 + len   name length (LE u16) + UTF-8 bytes, if flag bit2
//	edges   17 × m    from u32, to u32, sign i8, weight f64 per edge
//	observed 1 × n    state codes (+1, -1, 0, 9)
//	[rounds] 4 × n    first-infection rounds (i32, -1 unknown), if bit0
//	[seeds]  4 + 4×k  seed count (u32) + seed IDs, if bit1
//	[states] 1 × k    seed state codes, if bit3 (requires bit1)
//	trailer  4        CRC-32 (IEEE) of every preceding byte
//
// Unmarshal performs the same structural reading as the JSON decoder —
// semantic checks (ranges, duplicates, alignment) remain Validate's job,
// so both codecs feed the one validator at the same parse point.

// BinaryContentType is the HTTP media type that negotiates this codec on
// the serving API: a request body with this Content-Type is one binary
// trace rather than a JSON envelope.
const BinaryContentType = "application/x-rid-trace"

const (
	binMagic   = "RIDT"
	binVersion = 1

	binFlagRounds     = 1 << 0
	binFlagSeeds      = 1 << 1
	binFlagName       = 1 << 2
	binFlagSeedStates = 1 << 3

	binHeaderSize = 16
	binEdgeSize   = 17
)

// ErrBadBinary is wrapped by every binary-trace decode failure.
var ErrBadBinary = errors.New("trace: bad binary trace")

// MarshalBinary encodes t in binary trace format.
//
// Byte-exact round-tripping assumes a Validate-clean trace. Inconsistent
// optional fields degrade gracefully rather than producing undecodable
// output: SeedStates without Seeds is omitted entirely (the format stores
// one state per seed, so there is nothing to attach them to), matching
// what Validate rejects on the decode side anyway.
func MarshalBinary(t *Trace) []byte {
	flags := uint16(0)
	if t.Rounds != nil {
		flags |= binFlagRounds
	}
	if len(t.Seeds) > 0 {
		flags |= binFlagSeeds
	}
	if t.Name != "" {
		flags |= binFlagName
	}
	if len(t.SeedStates) > 0 && len(t.Seeds) > 0 {
		flags |= binFlagSeedStates
	}
	dst := []byte(binMagic)
	dst = binary.LittleEndian.AppendUint16(dst, binVersion)
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Nodes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Edges)))
	if flags&binFlagName != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Name)))
		dst = append(dst, t.Name...)
	}
	for _, e := range t.Edges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.From))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.To))
		dst = append(dst, byte(e.Sign))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Weight))
	}
	for _, c := range t.Observed {
		dst = append(dst, byte(c))
	}
	if flags&binFlagRounds != 0 {
		for _, r := range t.Rounds {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(r))
		}
	}
	if flags&binFlagSeeds != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Seeds)))
		for _, s := range t.Seeds {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
		}
	}
	if flags&binFlagSeedStates != 0 {
		for _, c := range t.SeedStates {
			dst = append(dst, byte(c))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// binReader is a bounds-checked sequential cursor over an encoded trace.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadBinary, fmt.Sprintf(format, args...))
	}
}

func (r *binReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) || r.off+n < r.off {
		r.fail("truncated reading %s (%d bytes at offset %d of %d)", what, n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u16(what string) uint16 {
	if b := r.take(2, what); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *binReader) u32(what string) uint32 {
	if b := r.take(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// UnmarshalBinary decodes a binary trace. It verifies the checksum and
// performs structural (length/offset) checks only; semantic validation is
// Validate, exactly as for JSON-decoded traces.
func UnmarshalBinary(data []byte) (*Trace, error) {
	if len(data) < binHeaderSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any trace", ErrBadBinary, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrBadBinary, got, want)
	}
	r := &binReader{data: body}
	if string(r.take(4, "magic")) != binMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBinary)
	}
	if v := r.u16("version"); v != binVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadBinary, v, binVersion)
	}
	flags := r.u16("flags")
	nodes := int(r.u32("node count"))
	edges := int(r.u32("edge count"))
	t := &Trace{Version: Version, Nodes: nodes}
	if flags&binFlagName != 0 {
		n := int(r.u16("name length"))
		t.Name = string(r.take(n, "name"))
	}
	if r.err == nil {
		// Bound the claimed count by the bytes actually present before
		// allocating: a forged header can claim up to 2^32-1 edges (~70 GB
		// of EdgeRecord) in a tiny body, and MaxBodyBytes only limits what
		// was read, not what the header claims.
		if rem := len(body) - r.off; edges > rem/binEdgeSize {
			r.fail("edge count %d exceeds the %d remaining bytes", edges, rem)
		}
	}
	if r.err == nil {
		t.Edges = make([]EdgeRecord, edges)
		for i := range t.Edges {
			b := r.take(binEdgeSize, "edge")
			if b == nil {
				break
			}
			t.Edges[i] = EdgeRecord{
				From:   int(int32(binary.LittleEndian.Uint32(b[0:4]))),
				To:     int(int32(binary.LittleEndian.Uint32(b[4:8]))),
				Sign:   int8(b[8]),
				Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[9:17])),
			}
		}
	}
	if b := r.take(nodes, "observed states"); b != nil {
		t.Observed = make([]int8, nodes)
		for i, c := range b {
			t.Observed[i] = int8(c)
		}
	}
	if flags&binFlagRounds != 0 {
		if b := r.take(4*nodes, "rounds"); b != nil {
			t.Rounds = make([]int32, nodes)
			for i := range t.Rounds {
				t.Rounds[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
	}
	seedCount := 0
	if flags&binFlagSeeds != 0 {
		seedCount = int(r.u32("seed count"))
		if b := r.take(4*seedCount, "seeds"); b != nil {
			t.Seeds = make([]int, seedCount)
			for i := range t.Seeds {
				t.Seeds[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
			}
		}
	}
	if flags&binFlagSeedStates != 0 {
		if flags&binFlagSeeds == 0 {
			r.fail("seed states without seeds")
		}
		if b := r.take(seedCount, "seed states"); b != nil {
			t.SeedStates = make([]int8, seedCount)
			for i, c := range b {
				t.SeedStates[i] = int8(c)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBinary, len(body)-r.off)
	}
	return t, nil
}

// WriteBinary encodes the trace in binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	_, err := w.Write(MarshalBinary(t))
	return err
}

// Decode parses data as either wire format, dispatching on the 4-byte
// "RIDT" magic: binary if present, JSON otherwise. For callers reading
// trace files of unknown provenance (the HTTP API negotiates the format
// explicitly via Content-Type instead).
func Decode(data []byte) (*Trace, error) {
	if len(data) >= len(binMagic) && string(data[:len(binMagic)]) == binMagic {
		return UnmarshalBinary(data)
	}
	return Read(bytes.NewReader(data))
}
