package sgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// Snapshot format ("RIDG" v1)
//
// A snapshot is the flat CSR arrays of a built Graph, dumped verbatim so a
// loader can alias typed views straight over the mapped file. Layout:
//
//	offset  size  field
//	0       4     magic "RIDG"
//	4       2     version (LE u16, currently 1)
//	6       2     flags (reserved, 0)
//	8       8     node count (LE u64)
//	16      8     edge count (LE u64)
//	24      8     payload length in bytes (LE u64)
//	32      4     CRC-32 (IEEE) of the payload
//	36      28    reserved (zero)
//	64      ...   payload
//
// The 64-byte header keeps the payload 8-byte aligned relative to the file
// start; mmap bases are page aligned, so every section below is safely
// addressable as []int32 / []float64 without copying. Payload sections, in
// order, each padded to an 8-byte boundary, all little-endian:
//
//	edgeFrom   m × int32
//	edgeTo     m × int32
//	edgeSign   m × int8
//	edgeWeight m × float64
//	outStart   (n+1) × int32
//	outList    m × int32
//	inStart    (n+1) × int32
//	inList     m × int32
//
// Loads verify magic, version, sizes, and checksum, then run a structural
// self-check (monotone offsets, in-range IDs, sorted adjacency) so a
// corrupt or truncated file is rejected rather than served as a partial
// graph. On failure or on platforms without mmap, LoadSnapshot falls back
// to a copy-on-read decode of the same bytes.

const (
	snapMagic      = "RIDG"
	snapVersion    = 1
	snapHeaderSize = 64
)

// ErrBadSnapshot is wrapped by every snapshot decode failure (bad magic,
// version, size, checksum, or structural inconsistency).
var ErrBadSnapshot = errors.New("sgraph: bad snapshot")

// hostLittle reports whether the host is little-endian; zero-copy aliasing
// is only valid when the in-memory representation matches the on-disk one.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(n int) int { return (n + 7) &^ 7 }

// snapSections describes the byte offset and length of each payload section
// for a graph with n nodes and m edges.
type snapSections struct {
	edgeFrom, edgeTo, edgeSign, edgeWeight sectionSpan
	outStart, outList, inStart, inList     sectionSpan
	total                                  int
}

type sectionSpan struct{ off, len int }

func sectionsFor(n, m int) snapSections {
	var s snapSections
	off := 0
	place := func(size int) sectionSpan {
		sp := sectionSpan{off: off, len: size}
		off += pad8(size)
		return sp
	}
	s.edgeFrom = place(4 * m)
	s.edgeTo = place(4 * m)
	s.edgeSign = place(m)
	s.edgeWeight = place(8 * m)
	s.outStart = place(4 * (n + 1))
	s.outList = place(4 * m)
	s.inStart = place(4 * (n + 1))
	s.inList = place(4 * m)
	s.total = off
	return s
}

// int32Bytes returns the raw little-endian bytes of v, copying only on
// big-endian hosts.
func int32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
	}
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func int8Bytes(v []int8) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}

// encodePayload serializes the graph's arrays into one contiguous payload.
func (g *Graph) encodePayload() []byte {
	m := g.NumEdges()
	sec := sectionsFor(g.n, m)
	buf := make([]byte, sec.total)
	copy(buf[sec.edgeFrom.off:], int32Bytes(g.edgeFrom))
	copy(buf[sec.edgeTo.off:], int32Bytes(g.edgeTo))
	copy(buf[sec.edgeSign.off:], int8Bytes(g.edgeSign))
	copy(buf[sec.edgeWeight.off:], float64Bytes(g.edgeWeight))
	copy(buf[sec.outStart.off:], int32Bytes(g.outStart))
	copy(buf[sec.outList.off:], int32Bytes(g.outList))
	copy(buf[sec.inStart.off:], int32Bytes(g.inStart))
	copy(buf[sec.inList.off:], int32Bytes(g.inList))
	return buf
}

// WriteSnapshot writes the graph in snapshot format. The output is
// deterministic: the same graph always produces the same bytes.
func (g *Graph) WriteSnapshot(w io.Writer) error {
	payload := g.encodePayload()
	var hdr [snapHeaderSize]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[32:36], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// parseSnapHeader validates the fixed header and returns node/edge counts
// and the payload length.
func parseSnapHeader(hdr []byte) (n, m, payloadLen int, crc uint32, err error) {
	if len(hdr) < snapHeaderSize {
		return 0, 0, 0, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadSnapshot, len(hdr))
	}
	if string(hdr[0:4]) != snapMagic {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != snapVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadSnapshot, v, snapVersion)
	}
	n64 := binary.LittleEndian.Uint64(hdr[8:16])
	m64 := binary.LittleEndian.Uint64(hdr[16:24])
	p64 := binary.LittleEndian.Uint64(hdr[24:32])
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 || p64 > math.MaxInt32*32 {
		return 0, 0, 0, 0, fmt.Errorf("%w: implausible sizes n=%d m=%d payload=%d", ErrBadSnapshot, n64, m64, p64)
	}
	n, m, payloadLen = int(n64), int(m64), int(p64)
	if want := sectionsFor(n, m).total; payloadLen != want {
		return 0, 0, 0, 0, fmt.Errorf("%w: payload length %d, want %d for n=%d m=%d", ErrBadSnapshot, payloadLen, want, n, m)
	}
	return n, m, payloadLen, binary.LittleEndian.Uint32(hdr[32:36]), nil
}

// aliasInt32 returns payload[sp.off:] viewed as count int32 values without
// copying. Caller guarantees the host is little-endian and the span is in
// bounds.
func aliasInt32(payload []byte, sp sectionSpan, count int) []int32 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&payload[sp.off])), count)
}

func aliasFloat64(payload []byte, sp sectionSpan, count int) []float64 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&payload[sp.off])), count)
}

func aliasInt8(payload []byte, sp sectionSpan, count int) []int8 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&payload[sp.off])), count)
}

// copyInt32 decodes count little-endian int32 values into a fresh slice.
func copyInt32(payload []byte, sp sectionSpan, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[sp.off+4*i:]))
	}
	return out
}

func copyFloat64(payload []byte, sp sectionSpan, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[sp.off+8*i:]))
	}
	return out
}

func copyInt8(payload []byte, sp sectionSpan, count int) []int8 {
	out := make([]int8, count)
	for i := range out {
		out[i] = int8(payload[sp.off+i])
	}
	return out
}

// decodeSnapshot reconstructs a Graph from header+payload bytes. When
// zeroCopy is true the returned graph's arrays alias data (which must then
// outlive the graph — the caller attaches the backing mapping).
func decodeSnapshot(data []byte, zeroCopy bool) (*Graph, error) {
	n, m, payloadLen, crc, err := parseSnapHeader(data)
	if err != nil {
		return nil, err
	}
	if len(data) < snapHeaderSize+payloadLen {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadSnapshot, len(data)-snapHeaderSize, payloadLen)
	}
	payload := data[snapHeaderSize : snapHeaderSize+payloadLen]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrBadSnapshot, got, crc)
	}
	sec := sectionsFor(n, m)
	g := &Graph{n: n}
	if zeroCopy && hostLittle {
		g.edgeFrom = aliasInt32(payload, sec.edgeFrom, m)
		g.edgeTo = aliasInt32(payload, sec.edgeTo, m)
		g.edgeSign = aliasInt8(payload, sec.edgeSign, m)
		g.edgeWeight = aliasFloat64(payload, sec.edgeWeight, m)
		g.outStart = aliasInt32(payload, sec.outStart, n+1)
		g.outList = aliasInt32(payload, sec.outList, m)
		g.inStart = aliasInt32(payload, sec.inStart, n+1)
		g.inList = aliasInt32(payload, sec.inList, m)
	} else {
		g.edgeFrom = copyInt32(payload, sec.edgeFrom, m)
		g.edgeTo = copyInt32(payload, sec.edgeTo, m)
		g.edgeSign = copyInt8(payload, sec.edgeSign, m)
		g.edgeWeight = copyFloat64(payload, sec.edgeWeight, m)
		g.outStart = copyInt32(payload, sec.outStart, n+1)
		g.outList = copyInt32(payload, sec.outList, m)
		g.inStart = copyInt32(payload, sec.inStart, n+1)
		g.inList = copyInt32(payload, sec.inList, m)
	}
	if err := g.validateStructure(); err != nil {
		return nil, err
	}
	return g, nil
}

// validateStructure checks the CSR invariants a correct Build always
// produces, so no decode path can hand out a graph that would index out of
// bounds or violate the sorted-adjacency contract downstream code relies on.
func (g *Graph) validateStructure() error {
	n, m := g.n, len(g.edgeTo)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if len(g.edgeFrom) != m || len(g.edgeSign) != m || len(g.edgeWeight) != m ||
		len(g.outList) != m || len(g.inList) != m ||
		len(g.outStart) != n+1 || len(g.inStart) != n+1 {
		return bad("inconsistent array lengths")
	}
	for i := 0; i < m; i++ {
		if u := g.edgeFrom[i]; u < 0 || int(u) >= n {
			return bad("edge %d: from %d out of range", i, u)
		}
		if v := g.edgeTo[i]; v < 0 || int(v) >= n {
			return bad("edge %d: to %d out of range", i, v)
		}
		if s := g.edgeSign[i]; s != int8(Positive) && s != int8(Negative) {
			return bad("edge %d: sign %d", i, s)
		}
		if w := g.edgeWeight[i]; !(w >= 0 && w <= 1) { // also rejects NaN
			return bad("edge %d: weight %g", i, w)
		}
	}
	checkAdj := func(start, list []int32, key []int32, name string) error {
		if start[0] != 0 || int(start[n]) != m {
			return bad("%s offsets do not span the edge array", name)
		}
		// Offsets must be validated in full before any slicing below.
		for u := 0; u < n; u++ {
			if start[u+1] < start[u] || int(start[u+1]) > m {
				return bad("%s offsets not monotone at node %d", name, u)
			}
		}
		for u := 0; u < n; u++ {
			prev := int32(-1)
			for _, ei := range list[start[u]:start[u+1]] {
				if ei < 0 || int(ei) >= m {
					return bad("%s list entry %d out of range at node %d", name, ei, u)
				}
				if key[ei] <= prev {
					return bad("%s list not strictly sorted at node %d", name, u)
				}
				prev = key[ei]
			}
		}
		return nil
	}
	if err := checkAdj(g.outStart, g.outList, g.edgeTo, "out"); err != nil {
		return err
	}
	// In-lists sort by source and may repeat it never (one edge per ordered
	// pair), so strict ordering holds there too.
	if err := checkAdj(g.inStart, g.inList, g.edgeFrom, "in"); err != nil {
		return err
	}
	// Every out-list entry must actually start at its node.
	for u := 0; u < n; u++ {
		for _, ei := range g.out(u) {
			if int(g.edgeFrom[ei]) != u {
				return bad("out list of node %d references edge %d from node %d", u, ei, g.edgeFrom[ei])
			}
		}
		for _, ei := range g.in(u) {
			if int(g.edgeTo[ei]) != u {
				return bad("in list of node %d references edge %d to node %d", u, ei, g.edgeTo[ei])
			}
		}
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r with copy-on-read semantics. The
// returned graph owns its arrays.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, false)
}

// WriteSnapshotFile writes the snapshot to path via a same-directory temp
// file and rename, so concurrent loaders never observe a partial file.
func WriteSnapshotFile(g *Graph, path string) error {
	tmp, err := os.CreateTemp(fileDir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := g.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func fileDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i]
		}
	}
	return "."
}

// LoadSnapshot opens a snapshot file as a Graph. On little-endian platforms
// with mmap support the arrays are zero-copy views over the mapped file
// (the mapping is released when the graph is garbage collected); otherwise,
// or if mapping fails, the file is read and decoded into fresh arrays. Any
// validation failure returns an error wrapping ErrBadSnapshot — a partial
// or corrupt graph is never returned.
//
// Because the arrays may alias the mapping, raw slices obtained from the
// graph must not outlive it: keep the *Graph (or a CSRView, which pins it)
// reachable for as long as any aliased slice is in use.
func LoadSnapshot(path string) (*Graph, error) {
	if hostLittle {
		if mp, err := openMapping(path); err == nil {
			g, derr := decodeSnapshot(mp.data, true)
			if derr == nil {
				g.snap = mp
				return g, nil
			}
			mp.release()
			// Decode errors are authoritative (bad bytes, not a bad map);
			// don't retry via the copy path on the same bytes.
			return nil, derr
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
