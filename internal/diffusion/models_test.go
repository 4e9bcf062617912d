package diffusion

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// testNetwork builds a reproducible weighted signed diffusion network of
// the kind the detectors consume (preferential attachment, Jaccard-derived
// weights, diffusion direction).
func testNetwork(t *testing.T, seed uint64, nodes, edges int) *sgraph.Graph {
	t.Helper()
	rng := xrand.New(seed)
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: nodes, Edges: edges, PositiveRatio: 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sgraph.WeightByJaccard(g, 0.1, rng).Reverse()
}

// TestWrapperAdapterBitIdentity pins that Validate decodes Params into the
// typed config: for a fixed seed, every model built directly from its
// typed config (through MFC for "mfc", the unexported adapter otherwise)
// produces a cascade bit-identical to the registry instance configured
// through Validate.
func TestWrapperAdapterBitIdentity(t *testing.T) {
	g := testNetwork(t, 42, 200, 1200)
	initiators := []int{0, 7, 33}
	states := []sgraph.State{sgraph.StatePositive, sgraph.StateNegative, sgraph.StatePositive}

	cases := []struct {
		model  string
		params Params
		typed  func() (*Cascade, error)
	}{
		{"mfc", Params{"alpha": 2.5}, func() (*Cascade, error) {
			return MFC(g, initiators, states, MFCConfig{Alpha: 2.5}, xrand.New(9))
		}},
		{"mfc", Params{"alpha": 3.0, "disable_flip": true}, func() (*Cascade, error) {
			return MFC(g, initiators, states, MFCConfig{Alpha: 3, DisableFlip: true}, xrand.New(9))
		}},
		{"ic", nil, func() (*Cascade, error) {
			return (&icModel{}).Run(g, initiators, states, xrand.New(9))
		}},
		{"lt", Params{"max_rounds": 12}, func() (*Cascade, error) {
			return (&ltModel{cfg: LTConfig{MaxRounds: 12}}).Run(g, initiators, states, xrand.New(9))
		}},
		{"sir", Params{"beta": 1.5, "gamma": 0.4}, func() (*Cascade, error) {
			return (&sirModel{cfg: SIRConfig{Beta: 1.5, Gamma: 0.4}}).Run(g, initiators, states, xrand.New(9))
		}},
		{"voter", Params{"rounds": 15}, func() (*Cascade, error) {
			return (&voterModel{cfg: VoterConfig{Rounds: 15}}).Run(g, initiators, states, xrand.New(9))
		}},
		{"pushpull", Params{"max_rounds": 60, "stall": 8}, func() (*Cascade, error) {
			return (&pushPullModel{cfg: PushPullConfig{MaxRounds: 60, Stall: 8}}).Run(g, initiators, states, xrand.New(9))
		}},
	}
	for _, tc := range cases {
		want, err := tc.typed()
		if err != nil {
			t.Fatalf("model %q typed config: %v", tc.model, err)
		}
		m, err := Lookup(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(tc.params); err != nil {
			t.Fatalf("model %q: Validate(%v) = %v", tc.model, tc.params, err)
		}
		got, err := m.Run(g, initiators, states, xrand.New(9))
		if err != nil {
			t.Fatalf("model %q adapter: %v", tc.model, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("model %q params %v: Validate-configured cascade differs from typed-config cascade", tc.model, tc.params)
		}
	}
}

// TestNewModelsFixedSeedDeterminism pins that pushpull is a pure function
// of (graph, seeds, rng seed): same seed twice is bit-identical.
func TestNewModelsFixedSeedDeterminism(t *testing.T) {
	g := testNetwork(t, 77, 300, 1800)
	initiators := []int{2, 50}
	states := []sgraph.State{sgraph.StatePositive, sgraph.StateNegative}

	run := func(seed uint64) *Cascade {
		c, err := (&pushPullModel{}).Run(g, initiators, states, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different cascades")
	}
	if a.NumInfected() < len(initiators) {
		t.Errorf("infected %d below seed count", a.NumInfected())
	}
	for _, u := range initiators {
		if a.FirstRound[u] != 0 {
			t.Errorf("seed %d first round = %d", u, a.FirstRound[u])
		}
	}
}

// TestPushPullLine walks a weight-1 line: push is the only viable contact
// each round (pull targets were inactive at round start), so the rumour
// advances exactly one hop per round and a negative link inverts it.
func TestPushPullLine(t *testing.T) {
	g := line(t, sgraph.Positive, sgraph.Negative, sgraph.Positive)
	c, err := (&pushPullModel{cfg: PushPullConfig{}}).Run(g, []int{0}, pos(t), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []sgraph.State{sgraph.StatePositive, sgraph.StatePositive, sgraph.StateNegative, sgraph.StateNegative}
	for v, w := range want {
		if c.States[v] != w {
			t.Errorf("state[%d] = %v, want %v", v, c.States[v], w)
		}
	}
	for v := 1; v < 4; v++ {
		if c.FirstRound[v] != int32(v) {
			t.Errorf("FirstRound[%d] = %d, want %d (one hop per round)", v, c.FirstRound[v], v)
		}
		if c.FirstActivatedBy[v] != int32(v-1) {
			t.Errorf("FirstActivatedBy[%d] = %d, want %d", v, c.FirstActivatedBy[v], v-1)
		}
	}
	if c.Exchanges == 0 || c.Attempts == 0 {
		t.Errorf("expected gossip accounting, got exchanges=%d attempts=%d", c.Exchanges, c.Attempts)
	}
}

// TestPushPullSignedFanout: a seed with one trusted and one distrusted
// out-edge (weight 1) eventually reaches both targets — the trusted target
// can also pull, the distrusted one can only be pushed to — and the
// adopted opinions follow the link signs.
func TestPushPullSignedFanout(t *testing.T) {
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(0, 2, sgraph.Negative, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := (&pushPullModel{cfg: PushPullConfig{}}).Run(g, []int{0}, pos(t), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[1] != sgraph.StatePositive {
		t.Errorf("trusted target state = %v, want +1", c.States[1])
	}
	if c.States[2] != sgraph.StateNegative {
		t.Errorf("distrusted target state = %v, want -1", c.States[2])
	}
}

// TestPushPullStall pins the stall cutoff: a graph whose only link has
// weight 0 can never spread, so the run stops after exactly Stall rounds.
func TestPushPullStall(t *testing.T) {
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := (&pushPullModel{cfg: PushPullConfig{Stall: 4}}).Run(g, []int{0}, pos(t), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4 (the stall cutoff)", c.Rounds)
	}
	if c.NumInfected() != 1 {
		t.Errorf("NumInfected = %d, want 1", c.NumInfected())
	}
}

// TestCountersThreadedThroughModels checks SetCounters wires the typed
// diffusion counters for every registered model.
func TestCountersThreadedThroughModels(t *testing.T) {
	g := testNetwork(t, 55, 150, 900)
	for _, name := range Models() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cs := &obs.CounterSet{}
		m.(CounterRecorder).SetCounters(cs)
		c, err := m.Run(g, []int{1}, pos(t), xrand.New(2))
		if err != nil {
			t.Fatalf("model %q: %v", name, err)
		}
		d := cs.Diffusion
		if d.Runs != 1 {
			t.Errorf("model %q: runs = %d, want 1", name, d.Runs)
		}
		if d.Rounds != int64(c.Rounds) || d.Attempts != int64(c.Attempts) ||
			d.Flips != int64(c.Flips) || d.Exchanges != int64(c.Exchanges) {
			t.Errorf("model %q: counter set %+v does not mirror cascade (rounds=%d attempts=%d flips=%d exchanges=%d)",
				name, d, c.Rounds, c.Attempts, c.Flips, c.Exchanges)
		}
		if name == "pushpull" && d.Exchanges == 0 {
			t.Error("pushpull recorded no exchanges")
		}
	}
}
