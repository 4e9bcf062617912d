// Package trace serializes complete ISOMIT problem instances — the
// diffusion network, the observed snapshot and the ground-truth initiators
// — as JSON, so workloads can be archived, diffed and replayed across
// tools and languages.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Version identifies the trace schema.
const Version = 1

// Trace is a self-contained ISOMIT instance.
type Trace struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Nodes   int    `json:"nodes"`
	// Edges are diffusion-network links (information-flow orientation).
	Edges []EdgeRecord `json:"edges"`
	// Observed is the snapshot handed to detectors: one state per node,
	// encoded as +1, -1, 0 or "?" via StateCode.
	Observed []int8 `json:"observed"`
	// Rounds optionally carries partial first-infection timestamps
	// (-1 = unknown), aligned with Observed.
	Rounds []int32 `json:"rounds,omitempty"`
	// Seeds and SeedStates are the ground truth (optional). SeedStates is
	// empty (identity-only truth) or holds one state per seed.
	Seeds      []int  `json:"seeds,omitempty"`
	SeedStates []int8 `json:"seed_states,omitempty"`
}

// EdgeRecord is one diffusion link.
type EdgeRecord struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Sign   int8    `json:"sign"`
	Weight float64 `json:"weight"`
}

// UnknownCode encodes sgraph.StateUnknown in traces (the in-memory value 2
// is an implementation detail kept out of the format; 9 is visually
// distinct in raw JSON).
const UnknownCode int8 = 9

// unknownCode is kept as the historical internal name.
const unknownCode = UnknownCode

// StateCode encodes an in-memory node state as its wire code: +1, -1, 0 or
// UnknownCode.
func StateCode(s sgraph.State) int8 {
	if s == sgraph.StateUnknown {
		return unknownCode
	}
	return int8(s)
}

// StateFromCode decodes a wire state code (+1, -1, 0 or UnknownCode).
func StateFromCode(c int8) (sgraph.State, error) {
	switch c {
	case 1, -1, 0:
		return sgraph.State(c), nil
	case unknownCode:
		return sgraph.StateUnknown, nil
	default:
		return 0, fmt.Errorf("trace: invalid state code %d", c)
	}
}

func stateToCode(s sgraph.State) int8 { return StateCode(s) }

func codeToState(c int8) (sgraph.State, error) { return StateFromCode(c) }

// FromSnapshot captures a snapshot plus optional ground truth.
func FromSnapshot(name string, snap *cascade.Snapshot, seeds []int, seedStates []sgraph.State) *Trace {
	t := &Trace{
		Version:  Version,
		Name:     name,
		Nodes:    snap.G.NumNodes(),
		Observed: make([]int8, len(snap.States)),
		Seeds:    append([]int(nil), seeds...),
	}
	snap.G.Edges(func(e sgraph.Edge) {
		t.Edges = append(t.Edges, EdgeRecord{From: e.From, To: e.To, Sign: int8(e.Sign), Weight: e.Weight})
	})
	for i, s := range snap.States {
		t.Observed[i] = stateToCode(s)
	}
	if snap.Rounds != nil {
		t.Rounds = append([]int32(nil), snap.Rounds...)
	}
	for _, s := range seedStates {
		t.SeedStates = append(t.SeedStates, stateToCode(s))
	}
	return t
}

// Validate checks the instance for structural defects a decoder can detect
// without building anything: wrong version, misaligned slices, out-of-range
// state codes, out-of-range / self-loop / duplicate edges, bad signs or
// weights, and malformed ground truth. The observational fields are checked
// first, by Observation.Validate, then the edges. It returns a descriptive
// error for the first defect found, so transport layers (the HTTP server's
// 400 responses, CLI replay) can reject bad payloads instead of panicking
// downstream.
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("trace: unsupported version %d (want %d)", t.Version, Version)
	}
	if t.Nodes < 0 {
		return fmt.Errorf("trace: negative node count %d", t.Nodes)
	}
	if err := t.Observation().Validate(t.Nodes); err != nil {
		return err
	}
	seen := make(map[[2]int]bool, len(t.Edges))
	for i, e := range t.Edges {
		switch {
		case e.From < 0 || e.From >= t.Nodes || e.To < 0 || e.To >= t.Nodes:
			return fmt.Errorf("trace: edges[%d]: endpoint (%d,%d) out of range for %d nodes", i, e.From, e.To, t.Nodes)
		case e.From == e.To:
			return fmt.Errorf("trace: edges[%d]: self-loop on node %d", i, e.From)
		case e.Sign != 1 && e.Sign != -1:
			return fmt.Errorf("trace: edges[%d]: invalid sign %d (want +1 or -1)", i, e.Sign)
		case e.Weight < 0 || e.Weight > 1 || math.IsNaN(e.Weight):
			return fmt.Errorf("trace: edges[%d]: weight %g outside [0, 1]", i, e.Weight)
		}
		key := [2]int{e.From, e.To}
		if seen[key] {
			return fmt.Errorf("trace: edges[%d]: duplicate edge (%d,%d)", i, e.From, e.To)
		}
		seen[key] = true
	}
	return nil
}

// BuildGraph constructs the diffusion network alone. Callers holding a
// graph cache use this together with States to rebuild snapshots without
// re-validating edges (see NetworkHash).
func (t *Trace) BuildGraph() (*sgraph.Graph, error) {
	b := sgraph.NewBuilder(t.Nodes)
	for _, e := range t.Edges {
		b.AddEdge(e.From, e.To, sgraph.Sign(e.Sign), e.Weight)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return g, nil
}

// States decodes the observed snapshot states.
func (t *Trace) States() ([]sgraph.State, error) { return t.Observation().states() }

// SnapshotOn assembles a snapshot from this trace's observed states over an
// already-built graph — the cache-hit path: g must be BuildGraph's result
// for a trace with identical NetworkHash.
func (t *Trace) SnapshotOn(g *sgraph.Graph) (*cascade.Snapshot, error) {
	if g.NumNodes() != t.Nodes {
		return nil, fmt.Errorf("trace: graph has %d nodes, trace %d", g.NumNodes(), t.Nodes)
	}
	return t.Observation().snapshot(g)
}

// Snapshot validates the trace and reconstructs the diffusion network and
// observed states.
func (t *Trace) Snapshot() (*cascade.Snapshot, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g, err := t.BuildGraph()
	if err != nil {
		return nil, err
	}
	return t.SnapshotOn(g)
}

// NetworkHash returns a hex content hash of the diffusion network alone —
// node count plus every edge in insertion order — ignoring the snapshot and
// ground truth. Two traces over the same network (repeat queries, fresh
// cascades on a shared graph) hash equal, which is what graph caches key
// on.
func (t *Trace) NetworkHash() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(t.Nodes)
	writeInt(len(t.Edges))
	for _, e := range t.Edges {
		writeInt(e.From)
		writeInt(e.To)
		writeInt(int(e.Sign))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Weight))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// GroundTruth decodes the seed set and states, or nil if absent.
func (t *Trace) GroundTruth() ([]int, []sgraph.State, error) { return t.Observation().GroundTruth() }

// Write encodes the trace as JSON.
func Write(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Read decodes one trace from JSON.
func Read(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &t, nil
}
