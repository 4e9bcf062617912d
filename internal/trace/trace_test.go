package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cascade"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func sampleInstance(t *testing.T) (*cascade.Snapshot, []int, []sgraph.State) {
	t.Helper()
	rng := xrand.New(3)
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: 200, Edges: 1000, PositiveRatio: 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dif := g.Reverse()
	seeds, states, err := diffusion.SampleInitiators(dif.NumNodes(), 5, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	observed := diffusion.MaskStates(c.States, 0.2, rng)
	snap, err := cascade.NewSnapshot(dif, observed)
	if err != nil {
		t.Fatal(err)
	}
	return snap, seeds, states
}

func TestRoundTrip(t *testing.T) {
	snap, seeds, seedStates := sampleInstance(t)
	tr := FromSnapshot("unit", snap, seeds, seedStates)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "unit" || back.Version != Version {
		t.Errorf("meta = %q v%d", back.Name, back.Version)
	}
	snap2, err := back.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.G.NumNodes() != snap.G.NumNodes() || snap2.G.NumEdges() != snap.G.NumEdges() {
		t.Fatalf("graph size changed: %d/%d vs %d/%d",
			snap2.G.NumNodes(), snap2.G.NumEdges(), snap.G.NumNodes(), snap.G.NumEdges())
	}
	for v := range snap.States {
		if snap.States[v] != snap2.States[v] {
			t.Fatalf("state[%d] = %v vs %v", v, snap.States[v], snap2.States[v])
		}
	}
	snap.G.Edges(func(e sgraph.Edge) {
		got, ok := snap2.G.HasEdge(e.From, e.To)
		if !ok || got.Sign != e.Sign || got.Weight != e.Weight {
			t.Fatalf("edge (%d,%d) changed", e.From, e.To)
		}
	})
	gotSeeds, gotStates, err := back.GroundTruth()
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if gotSeeds[i] != seeds[i] || gotStates[i] != seedStates[i] {
			t.Fatalf("ground truth changed at %d", i)
		}
	}
}

func TestUnknownStateEncoding(t *testing.T) {
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	g := b.MustBuild()
	snap, err := cascade.NewSnapshot(g, []sgraph.State{sgraph.StatePositive, sgraph.StateUnknown})
	if err != nil {
		t.Fatal(err)
	}
	tr := FromSnapshot("", snap, nil, nil)
	if tr.Observed[1] != 9 {
		t.Errorf("unknown encoded as %d, want 9", tr.Observed[1])
	}
	snap2, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.States[1] != sgraph.StateUnknown {
		t.Errorf("unknown decoded as %v", snap2.States[1])
	}
}

func TestValidation(t *testing.T) {
	if _, err := (&Trace{Version: 99}).Snapshot(); err == nil {
		t.Error("bad version should error")
	}
	if _, err := (&Trace{Version: Version, Nodes: 2, Observed: []int8{1}}).Snapshot(); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := (&Trace{Version: Version, Nodes: 1, Observed: []int8{5}}).Snapshot(); err == nil {
		t.Error("bad state code should error")
	}
	bad := &Trace{Seeds: []int{1}, SeedStates: []int8{1, -1}}
	if _, _, err := bad.GroundTruth(); err == nil {
		t.Error("seed/state mismatch should error")
	}
	idOnly := &Trace{Seeds: []int{1}}
	if s, st, err := idOnly.GroundTruth(); !reflect.DeepEqual(s, []int{1}) || st != nil || err != nil {
		t.Errorf("identity-only ground truth = %v, %v, %v; want [1], nil states, nil error", s, st, err)
	}
	none := &Trace{}
	if s, st, err := none.GroundTruth(); s != nil || st != nil || err != nil {
		t.Error("absent ground truth should return nils")
	}
	if _, err := Read(bytes.NewBufferString("{broken")); err == nil {
		t.Error("broken JSON should error")
	}
}

func TestValidateRejectsMalformedInstances(t *testing.T) {
	valid := func() *Trace {
		return &Trace{
			Version:  Version,
			Nodes:    3,
			Edges:    []EdgeRecord{{From: 0, To: 1, Sign: 1, Weight: 0.5}, {From: 1, To: 2, Sign: -1, Weight: 0.3}},
			Observed: []int8{1, -1, 0},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"bad version", func(tr *Trace) { tr.Version = 7 }},
		{"negative nodes", func(tr *Trace) { tr.Nodes = -1; tr.Observed = nil }},
		{"observed length", func(tr *Trace) { tr.Observed = tr.Observed[:2] }},
		{"bad state code", func(tr *Trace) { tr.Observed[0] = 5 }},
		{"rounds length", func(tr *Trace) { tr.Rounds = []int32{0} }},
		{"bad round", func(tr *Trace) { tr.Rounds = []int32{0, -2, 1} }},
		{"edge out of range", func(tr *Trace) { tr.Edges[0].To = 3 }},
		{"negative endpoint", func(tr *Trace) { tr.Edges[0].From = -1 }},
		{"self-loop", func(tr *Trace) { tr.Edges[1].To = 1 }},
		{"bad sign", func(tr *Trace) { tr.Edges[0].Sign = 0 }},
		{"bad weight", func(tr *Trace) { tr.Edges[0].Weight = 1.5 }},
		{"duplicate edge", func(tr *Trace) { tr.Edges[1] = tr.Edges[0] }},
		{"seed out of range", func(tr *Trace) { tr.Seeds = []int{3}; tr.SeedStates = []int8{1} }},
		{"duplicate seed", func(tr *Trace) { tr.Seeds = []int{1, 1}; tr.SeedStates = []int8{1, 1} }},
		{"seed state mismatch", func(tr *Trace) { tr.Seeds = []int{0, 1}; tr.SeedStates = []int8{1} }},
		{"seed states without seeds", func(tr *Trace) { tr.SeedStates = []int8{1} }},
		{"seed state not concrete", func(tr *Trace) { tr.Seeds = []int{0}; tr.SeedStates = []int8{9} }},
	}
	for _, tc := range cases {
		tr := valid()
		tc.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed trace", tc.name)
		}
		if _, err := tr.Snapshot(); err == nil {
			t.Errorf("%s: Snapshot accepted malformed trace", tc.name)
		}
	}
}

func TestNetworkHash(t *testing.T) {
	snap, seeds, seedStates := sampleInstance(t)
	a := FromSnapshot("a", snap, seeds, seedStates)
	b := FromSnapshot("b", snap, nil, nil)
	if a.NetworkHash() != b.NetworkHash() {
		t.Error("same network with different metadata should hash equal")
	}
	// A different snapshot over the same graph keeps the network hash.
	c := FromSnapshot("c", snap, seeds, seedStates)
	c.Observed[0] = unknownCode
	if a.NetworkHash() != c.NetworkHash() {
		t.Error("observed states must not affect the network hash")
	}
	// Any edge perturbation changes it.
	d := FromSnapshot("d", snap, nil, nil)
	d.Edges[0].Weight += 1e-9
	if a.NetworkHash() == d.NetworkHash() {
		t.Error("edge weight change should change the network hash")
	}
	e := FromSnapshot("e", snap, nil, nil)
	e.Nodes++
	e.Observed = append(e.Observed, 0)
	if a.NetworkHash() == e.NetworkHash() {
		t.Error("node count change should change the network hash")
	}
}

func TestSnapshotOnCachedGraph(t *testing.T) {
	snap, seeds, seedStates := sampleInstance(t)
	tr := FromSnapshot("cached", snap, seeds, seedStates)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := tr.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := tr.SnapshotOn(g)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.G != g {
		t.Error("SnapshotOn should reuse the supplied graph")
	}
	for v := range snap.States {
		if snap.States[v] != snap2.States[v] {
			t.Fatalf("state[%d] changed", v)
		}
	}
	small := sgraph.NewBuilder(1).MustBuild()
	if _, err := tr.SnapshotOn(small); err == nil {
		t.Error("node-count mismatch should error")
	}
}

func TestRoundsRoundTrip(t *testing.T) {
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	g := b.MustBuild()
	snap, err := cascade.NewSnapshotWithRounds(g,
		[]sgraph.State{sgraph.StatePositive, sgraph.StatePositive}, []int32{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := FromSnapshot("timed", snap, nil, nil)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := back.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Rounds == nil || snap2.Rounds[1] != 3 {
		t.Errorf("rounds lost: %v", snap2.Rounds)
	}
}

func FuzzTraceRead(f *testing.F) {
	snap, seeds, states := func() (*cascade.Snapshot, []int, []sgraph.State) {
		b := sgraph.NewBuilder(2)
		b.AddEdge(0, 1, sgraph.Positive, 0.5)
		g := b.MustBuild()
		s, _ := cascade.NewSnapshot(g, []sgraph.State{sgraph.StatePositive, sgraph.StateNegative})
		return s, []int{0}, []sgraph.State{sgraph.StatePositive}
	}()
	var seed bytes.Buffer
	if err := Write(&seed, FromSnapshot("fuzz", snap, seeds, states)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("{}")
	f.Add(`{"version":1,"nodes":1,"observed":[9]}`)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		// Decoded traces must never panic downstream; errors are fine.
		if _, err := tr.Snapshot(); err != nil {
			return
		}
		_, _, _ = tr.GroundTruth()
	})
}

// FuzzTraceDecode feeds arbitrary bytes through Decode (both wire formats).
// Decoding and every downstream call must never panic. A trace that passes
// Validate must survive the binary and the JSON round trip unchanged, and
// the round-tripped copies must validate, bind snapshots and decode ground
// truth exactly as the original does.
func FuzzTraceDecode(f *testing.F) {
	var js bytes.Buffer
	if err := Write(&js, sampleTrace(true, true, true, true)); err != nil {
		f.Fatal(err)
	}
	f.Add(js.Bytes())
	f.Add(MarshalBinary(sampleTrace(true, true, true, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		_, _ = tr.Snapshot()
		_, _, _ = tr.GroundTruth()
		if tr.Validate() != nil {
			return
		}
		if _, _, err := tr.GroundTruth(); err != nil {
			t.Fatalf("Validate-clean trace: GroundTruth: %v", err)
		}
		bin, err := UnmarshalBinary(MarshalBinary(tr))
		if err != nil {
			t.Fatalf("binary round trip: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		viaJSON, err := Read(&buf)
		if err != nil {
			t.Fatalf("JSON round trip: %v", err)
		}
		want := canonical(tr)
		for name, got := range map[string]*Trace{"binary": bin, "JSON": viaJSON} {
			if !reflect.DeepEqual(canonical(got), want) {
				t.Fatalf("%s round trip changed the trace:\n got %+v\nwant %+v", name, got, tr)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s round trip no longer validates: %v", name, err)
			}
			g, err := tr.BuildGraph()
			if err != nil {
				continue
			}
			s1, e1 := tr.SnapshotOn(g)
			s2, e2 := got.SnapshotOn(g)
			if fmt.Sprint(e1) != fmt.Sprint(e2) || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("%s round trip: SnapshotOn (%v) differs from the original's (%v)", name, e2, e1)
			}
			seeds1, states1, e1 := tr.GroundTruth()
			seeds2, states2, e2 := got.GroundTruth()
			if fmt.Sprint(e1) != fmt.Sprint(e2) || !reflect.DeepEqual(seeds1, seeds2) || !reflect.DeepEqual(states1, states2) {
				t.Fatalf("%s round trip: GroundTruth (%v) differs from the original's (%v)", name, e2, e1)
			}
		}
	})
}

// canonical returns a copy of t in the form both codecs reproduce: empty
// slices as nil (JSON omits empty optional fields, RIDT always allocates
// edges and observed states).
func canonical(t *Trace) *Trace {
	c := *t
	if len(c.Edges) == 0 {
		c.Edges = nil
	}
	if len(c.Observed) == 0 {
		c.Observed = nil
	}
	if len(c.Rounds) == 0 {
		c.Rounds = nil
	}
	if len(c.Seeds) == 0 {
		c.Seeds = nil
	}
	if len(c.SeedStates) == 0 {
		c.SeedStates = nil
	}
	return &c
}
