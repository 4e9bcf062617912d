package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{Nodes: 0, Edges: 1}},
		{"negative nodes", Config{Nodes: -3, Edges: 1}},
		{"negative edges", Config{Nodes: 3, Edges: -1}},
		{"ratio above one", Config{Nodes: 3, Edges: 1, PositiveRatio: 1.5}},
		{"ratio below zero", Config{Nodes: 3, Edges: 1, PositiveRatio: -0.5}},
		{"bad weights", Config{Nodes: 3, Edges: 1, WeightLow: 0.9, WeightHigh: 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ErdosRenyi(tt.cfg, xrand.New(1)); err == nil {
				t.Errorf("ErdosRenyi(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestErdosRenyi(t *testing.T) {
	cfg := Config{Nodes: 100, Edges: 400, PositiveRatio: 0.8}
	g, err := ErdosRenyi(cfg, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Errorf("nodes = %d, want 100", g.NumNodes())
	}
	if g.NumEdges() != 400 {
		t.Errorf("edges = %d, want 400", g.NumEdges())
	}
	st := g.Stats()
	if st.PositiveRatio < 0.7 || st.PositiveRatio > 0.9 {
		t.Errorf("positive ratio = %g, want near 0.8", st.PositiveRatio)
	}
	g.Edges(func(e sgraph.Edge) {
		if e.Weight < 0.01 || e.Weight >= 0.3 {
			t.Errorf("default weight %g outside [0.01, 0.3)", e.Weight)
		}
	})
}

func TestErdosRenyiTooManyEdges(t *testing.T) {
	if _, err := ErdosRenyi(Config{Nodes: 3, Edges: 7}, xrand.New(1)); err == nil {
		t.Error("want error when edges exceed n(n-1)")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	cfg := Config{Nodes: 50, Edges: 120, PositiveRatio: 0.5}
	a, err := ErdosRenyi(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a.Edge(i), b.Edge(i))
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	cfg := Config{Nodes: 2000, Edges: 12000, PositiveRatio: 0.85}
	g, err := PreferentialAttachment(cfg, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Errorf("nodes = %d, want 2000", g.NumNodes())
	}
	if g.NumEdges() < 11000 {
		t.Errorf("edges = %d, want close to 12000", g.NumEdges())
	}
	st := g.Stats()
	if st.PositiveRatio < 0.8 || st.PositiveRatio > 0.9 {
		t.Errorf("positive ratio = %g, want near 0.85", st.PositiveRatio)
	}
	// Heavy tail: the max in-degree should far exceed the mean.
	mean := float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(st.MaxInDegree) < 5*mean {
		t.Errorf("max in-degree %d not heavy-tailed (mean %.1f)", st.MaxInDegree, mean)
	}
}

func TestPreferentialAttachmentNoDuplicateEdges(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := PreferentialAttachment(Config{Nodes: 60, Edges: 240, PositiveRatio: 0.5}, xrand.New(seed))
		if err != nil {
			return false
		}
		seen := make(map[[2]int]bool)
		dup := false
		g.Edges(func(e sgraph.Edge) {
			k := [2]int{e.From, e.To}
			if seen[k] || e.From == e.To {
				dup = true
			}
			seen[k] = true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPresets(t *testing.T) {
	if len(Presets()) != 2 {
		t.Fatalf("Presets() = %d entries, want 2", len(Presets()))
	}
	p, err := PresetByName("Epinions")
	if err != nil || p.Nodes != 131828 || p.Edges != 841372 {
		t.Errorf("Epinions preset = %+v, %v", p, err)
	}
	s, err := PresetByName("Slashdot")
	if err != nil || s.Nodes != 77350 || s.Edges != 516575 {
		t.Errorf("Slashdot preset = %+v, %v", s, err)
	}
	if _, err := PresetByName("Wikipedia"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestPresetGenerate(t *testing.T) {
	rng := xrand.New(42)
	g, err := Epinions.Generate(0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := int(float64(Epinions.Nodes) * 0.02)
	if g.NumNodes() != wantNodes {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	st := g.Stats()
	if math.Abs(st.PositiveRatio-Epinions.PositiveRatio) > 0.05 {
		t.Errorf("positive ratio = %g, want near %g", st.PositiveRatio, Epinions.PositiveRatio)
	}
	g.Edges(func(e sgraph.Edge) {
		if e.Weight < 0 || e.Weight > 1 {
			t.Errorf("weight %g out of range", e.Weight)
		}
	})
}

func TestPresetGenerateBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, 1.5} {
		if _, err := Epinions.Generate(scale, xrand.New(1)); err == nil {
			t.Errorf("scale %g should error", scale)
		}
	}
}
