package diffusion

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func TestVoterDeterministicChain(t *testing.T) {
	// Single in-neighbor each: the pick is forced, so after enough rounds
	// the whole chain holds the propagated opinion.
	g := line(t, sgraph.Positive, sgraph.Negative)
	c, err := (&voterModel{cfg: VoterConfig{Rounds: 5}}).Run(g, []int{0}, pos(t), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[1] != sgraph.StatePositive {
		t.Errorf("state[1] = %v, want +1", c.States[1])
	}
	if c.States[2] != sgraph.StateNegative {
		t.Errorf("state[2] = %v, want -1 (inverted by distrust)", c.States[2])
	}
	if c.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", c.Rounds)
	}
}

func TestVoterSeedsAreStubborn(t *testing.T) {
	// A negative 2-cycle: the non-seed should oscillate or settle, but
	// the seed must never move.
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Negative, 1)
	b.AddEdge(1, 0, sgraph.Negative, 1)
	g := b.MustBuild()
	c, err := (&voterModel{cfg: VoterConfig{Rounds: 9}}).Run(g, []int{0}, pos(t), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[0] != sgraph.StatePositive {
		t.Errorf("seed moved to %v", c.States[0])
	}
	if c.States[1] != sgraph.StateNegative {
		t.Errorf("state[1] = %v, want -1", c.States[1])
	}
}

func TestVoterOpinionChurn(t *testing.T) {
	// Unlike IC/MFC, voter nodes resample every round: on a signed dense
	// graph opinions keep churning, visible as a large flip count.
	g, err := gen.ErdosRenyi(gen.Config{Nodes: 200, Edges: 2000, PositiveRatio: 0.6, WeightLow: 0.5, WeightHigh: 1}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seeds, states, err := SampleInitiators(200, 20, 0.5, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	c, err := (&voterModel{cfg: VoterConfig{Rounds: 30}}).Run(g, seeds, states, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInfected() <= 20 {
		t.Errorf("voter did not spread: %d active", c.NumInfected())
	}
	if c.Flips == 0 {
		t.Error("voter on a signed dense graph should churn opinions")
	}
}

func TestVoterValidation(t *testing.T) {
	g := line(t, sgraph.Positive)
	if _, err := (&voterModel{cfg: VoterConfig{}}).Run(g, []int{0}, pos(t), xrand.New(1)); !errors.Is(err, ErrBadCoefficient) {
		t.Errorf("rounds=0: err = %v", err)
	}
	if _, err := (&voterModel{cfg: VoterConfig{Rounds: 3}}).Run(g, nil, nil, xrand.New(1)); !errors.Is(err, ErrNoInitiators) {
		t.Errorf("no seeds: err = %v", err)
	}
}

func TestVoterFirstActivationForest(t *testing.T) {
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: 150, Edges: 700, PositiveRatio: 0.8, WeightLow: 0.3, WeightHigh: 0.9}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	dif := g.Reverse()
	seeds, states, err := SampleInitiators(dif.NumNodes(), 10, 0.5, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := (&voterModel{cfg: VoterConfig{Rounds: 20}}).Run(dif, seeds, states, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range c.States {
		if !s.Active() || c.FirstActivatedBy[v] == -1 {
			continue
		}
		u, steps := v, 0
		for c.FirstActivatedBy[u] != -1 {
			u = int(c.FirstActivatedBy[u])
			steps++
			if steps > dif.NumNodes() {
				t.Fatalf("first-activation chain from %d cycles", v)
			}
		}
	}
}
