package sgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the snapshot golden fixture")

// sameGraph asserts two graphs are observationally identical through the
// public API.
func sameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got %d/%d nodes/edges, want %d/%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := 0; i < want.NumEdges(); i++ {
		if want.Edge(i) != got.Edge(i) {
			t.Fatalf("edge %d: got %+v, want %+v", i, got.Edge(i), want.Edge(i))
		}
	}
	for u := 0; u < want.NumNodes(); u++ {
		if !reflect.DeepEqual(edgesOf(want.Out, u), edgesOf(got.Out, u)) {
			t.Fatalf("out edges of %d differ", u)
		}
		if !reflect.DeepEqual(edgesOf(want.In, u), edgesOf(got.In, u)) {
			t.Fatalf("in edges of %d differ", u)
		}
	}
}

// edgesOf collects the links one adjacency visitor (Graph.Out or Graph.In)
// reports for u.
func edgesOf(visit func(int, func(Edge)), u int) []Edge {
	var es []Edge
	visit(u, func(e Edge) { es = append(es, e) })
	return es
}

func snapshotBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := randomGraph(7, 200, 900)
	raw := snapshotBytes(t, g)
	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	// Re-encoding the decoded graph must reproduce the bytes exactly.
	if !bytes.Equal(raw, snapshotBytes(t, got)) {
		t.Fatal("snapshot encoding is not a fixed point of decode")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	got, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
}

func TestLoadSnapshotZeroCopy(t *testing.T) {
	g := randomGraph(11, 100, 400)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(g, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	if hostLittle && got.snap == nil {
		t.Error("expected a zero-copy mapped load on this platform")
	}
	// The mapped graph must survive and stay correct after arbitrary reads.
	if st := got.Stats(); st.Edges != g.NumEdges() {
		t.Fatalf("stats over mapped graph: %+v", st)
	}
}

func TestLoadSnapshotMissingFile(t *testing.T) {
	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// corrupt writes a mutated copy of raw and asserts both decode paths reject
// it with ErrBadSnapshot.
func wantBadSnapshot(t *testing.T, raw []byte) {
	t.Helper()
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errorsIsBad(err) {
		t.Fatalf("ReadSnapshot: got %v, want ErrBadSnapshot", err)
	}
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); !errorsIsBad(err) {
		t.Fatalf("LoadSnapshot: got %v, want ErrBadSnapshot", err)
	}
}

func errorsIsBad(err error) bool { return errors.Is(err, ErrBadSnapshot) }

func TestSnapshotRejectsTruncation(t *testing.T) {
	raw := snapshotBytes(t, randomGraph(3, 50, 200))
	for _, cut := range []int{0, 3, snapHeaderSize - 1, snapHeaderSize, len(raw) / 2, len(raw) - 1} {
		wantBadSnapshot(t, raw[:cut])
	}
}

func TestSnapshotRejectsWrongMagic(t *testing.T) {
	raw := snapshotBytes(t, randomGraph(3, 50, 200))
	bad := append([]byte(nil), raw...)
	copy(bad, "NOPE")
	wantBadSnapshot(t, bad)
}

func TestSnapshotRejectsWrongVersion(t *testing.T) {
	raw := snapshotBytes(t, randomGraph(3, 50, 200))
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(bad[4:6], snapVersion+1)
	wantBadSnapshot(t, bad)
}

func TestSnapshotRejectsCorruptPayload(t *testing.T) {
	raw := snapshotBytes(t, randomGraph(3, 50, 200))
	// Flip one byte in the middle of the payload; the checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[snapHeaderSize+len(bad)/3] ^= 0xFF
	wantBadSnapshot(t, bad)
}

// TestSnapshotRejectsStructuralCorruption forges a snapshot whose checksum
// is valid but whose CSR arrays are internally inconsistent — the
// structural self-check must refuse it rather than hand out a graph that
// indexes out of bounds.
func TestSnapshotRejectsStructuralCorruption(t *testing.T) {
	g := randomGraph(5, 40, 160)
	mutations := map[string]func(payload []byte, sec snapSections){
		"edge target out of range": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint32(p[sec.edgeTo.off:], uint32(g.NumNodes()))
		},
		"negative from": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint32(p[sec.edgeFrom.off:], ^uint32(0))
		},
		"zero sign": func(p []byte, sec snapSections) {
			p[sec.edgeSign.off] = 0
		},
		"NaN weight": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint64(p[sec.edgeWeight.off:], math.Float64bits(math.NaN()))
		},
		"non-monotone outStart": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint32(p[sec.outStart.off+4:], ^uint32(0)>>1)
		},
		"outList entry out of range": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint32(p[sec.outList.off:], uint32(g.NumEdges()))
		},
		"inStart does not span edges": func(p []byte, sec snapSections) {
			binary.LittleEndian.PutUint32(p[sec.inStart.off+4*g.NumNodes():], uint32(g.NumEdges()-1))
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			raw := snapshotBytes(t, g)
			sec := sectionsFor(g.NumNodes(), g.NumEdges())
			payload := raw[snapHeaderSize:]
			mutate(payload, sec)
			binary.LittleEndian.PutUint32(raw[32:36], crc32.ChecksumIEEE(payload))
			wantBadSnapshot(t, raw)
		})
	}
}

// TestSnapshotGolden pins the wire format byte for byte: a change to the
// header, section order, padding, or endianness shows up as a diff against
// the committed fixture. Regenerate deliberately with:
// go test ./internal/sgraph -run SnapshotGolden -update
func TestSnapshotGolden(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, Positive, 0.5)
	b.AddEdge(1, 2, Negative, 0.25)
	b.AddEdge(2, 0, Positive, 1)
	b.AddEdge(3, 4, Negative, 0)
	b.AddEdge(4, 3, Positive, 0.125)
	b.AddEdge(0, 5, Positive, 0.75)
	g := b.MustBuild()
	got := snapshotBytes(t, g)
	path := filepath.Join("testdata", "graph_golden.snap")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes drifted from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
	back, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, back)
}

// FuzzSnapshotRead feeds arbitrary bytes to ReadSnapshot. Properties: no
// panic; every rejection wraps ErrBadSnapshot; allocation stays within a
// constant times the input size, so a header declaring a huge graph over
// a short payload is refused before anything is sized from the header;
// and an accepted graph re-encodes to bytes that decode to the same graph.
func FuzzSnapshotRead(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "graph_golden.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, g := range []*Graph{NewBuilder(0).MustBuild(), randomGraph(5, 12, 30)} {
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A header declaring n = m = 2^30 with the matching payload length,
	// followed by no payload at all.
	huge := append([]byte(nil), golden[:snapHeaderSize]...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<30)
	binary.LittleEndian.PutUint64(huge[16:24], 1<<30)
	binary.LittleEndian.PutUint64(huge[24:32], uint64(sectionsFor(1<<30, 1<<30).total))
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotRead(t, data)
		// The checksum covers the whole payload, so mutations almost never
		// get past it; a copy with the checksum recomputed lets the fuzzer
		// reach the structural checks as well.
		if len(data) >= snapHeaderSize {
			sealed := append([]byte(nil), data...)
			payload := sealed[snapHeaderSize:]
			if p := binary.LittleEndian.Uint64(sealed[24:32]); p < uint64(len(payload)) {
				payload = payload[:p]
			}
			binary.LittleEndian.PutUint32(sealed[32:36], crc32.ChecksumIEEE(payload))
			checkSnapshotRead(t, sealed)
		}
	})
}

// checkSnapshotRead asserts FuzzSnapshotRead's properties on one input.
func checkSnapshotRead(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<16 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
	if err != nil {
		if !errorsIsBad(err) {
			t.Fatalf("rejection does not wrap ErrBadSnapshot: %v", err)
		}
		return
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
	sameGraph(t, g, back)
}

func BenchmarkSnapshotLoad(b *testing.B) {
	g := randomGraph(9, 5000, 40000)
	path := filepath.Join(b.TempDir(), "g.snap")
	if err := WriteSnapshotFile(g, path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gg, err := LoadSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if gg.NumEdges() != g.NumEdges() {
			b.Fatal("bad load")
		}
	}
}
