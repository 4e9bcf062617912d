package repro_test

import (
	"testing"

	"repro"
	"repro/internal/metrics"
)

func TestEndToEndPublicAPI(t *testing.T) {
	rng := repro.NewRand(2017)
	social, err := repro.GenerateNetwork(2000, 12000, 0.85, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, dif, err := repro.SimulateMFC(social, repro.SimConfig{N: 60, Theta: 0.5, Alpha: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInfected() < 60 {
		t.Fatalf("infected = %d, want >= seeds", c.NumInfected())
	}
	snap, err := repro.NewSnapshot(dif, c.States)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := repro.NewRID(repro.RIDConfig{Alpha: 3, Beta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	det, err := rid.Detect(snap)
	if err != nil {
		t.Fatal(err)
	}
	id := metrics.EvalIdentity(det.Initiators, c.Initiators)
	if id.F1 == 0 {
		t.Error("RID found nothing")
	}
	st, err := metrics.EvalStates(det.Initiators, det.States, c.Initiators, c.InitStates)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compared > 0 && st.Accuracy < 0.5 {
		t.Errorf("state accuracy = %g", st.Accuracy)
	}
}

func TestLoadDatasetFacade(t *testing.T) {
	g, err := repro.LoadDataset("Epinions", 0.01, repro.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Nodes == 0 || st.Edges == 0 {
		t.Fatal("empty dataset")
	}
	if st.PositiveRatio < 0.75 || st.PositiveRatio > 0.95 {
		t.Errorf("positive ratio = %g, want near 0.85", st.PositiveRatio)
	}
}

func TestBaselineFacades(t *testing.T) {
	rng := repro.NewRand(5)
	social, err := repro.GenerateNetwork(800, 4800, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, dif, err := repro.SimulateMFC(social, repro.SimConfig{N: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	masked := repro.MaskStates(c.States, 0.2, rng)
	snap, err := repro.NewSnapshot(dif, masked)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := repro.NewRIDTree(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []repro.Detector{tree, repro.NewRIDPositive(), repro.NewRumorCentrality()} {
		det, err := d.Detect(snap)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if len(det.Initiators) == 0 {
			t.Errorf("%s detected nothing", d.Name())
		}
	}
}

func TestBalanceFacade(t *testing.T) {
	g, err := repro.LoadDataset("Epinions", 0.01, repro.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	c := repro.TriangleCensus(g)
	if c.Triangles == 0 {
		t.Fatal("no triangles in generated network")
	}
	if c.BalancedFraction < 0.6 {
		t.Errorf("balanced fraction = %g, want >= 0.6 (balance-aware closure)", c.BalancedFraction)
	}
}

func TestExplicitSeedsFacade(t *testing.T) {
	rng := repro.NewRand(9)
	b := repro.NewGraphBuilder(3)
	b.AddEdge(1, 0, repro.Positive, 1) // social: 1 trusts 0
	b.AddEdge(2, 1, repro.Negative, 1) // social: 2 distrusts 1
	social, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := repro.SimulateMFC(social, repro.SimConfig{
		Initiators: []int{0},
		States:     []repro.State{repro.StatePositive},
		Alpha:      3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Diffusion reverses: 0 -> 1 (positive), 1 -> 2 (negative).
	if c.States[1] != repro.StatePositive || c.States[2] != repro.StateNegative {
		t.Errorf("states = %v", c.States)
	}
}
