package core

import (
	"testing"

	"repro/internal/metrics"
)

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, nil, 1); err == nil {
		t.Error("empty betas should error")
	}
	if _, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.1, 0.5}, 0); err == nil {
		t.Error("minVotes 0 should error")
	}
	if _, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.1, 0.5}, 3); err == nil {
		t.Error("minVotes above sweep count should error")
	}
	if _, err := NewEnsembleConfig(RIDConfig{Alpha: 0.5}, []float64{0.1}, 1); err == nil {
		t.Error("invalid alpha should error")
	}
	e, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.5, 0.1, 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "RID-Ensemble(2/3)" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestEnsembleVoteSemantics(t *testing.T) {
	sim := simulate(t, 55, 2000, 13000, 80)
	unanimity, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.1, 0.4, 0.8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	anyVote, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.1, 0.4, 0.8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := unanimity.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := anyVote.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Initiators) > len(loose.Initiators) {
		t.Errorf("unanimity detected more (%d) than any-vote (%d)", len(strict.Initiators), len(loose.Initiators))
	}
	// Unanimity set ⊆ any-vote set.
	in := make(map[int]bool, len(loose.Initiators))
	for _, v := range loose.Initiators {
		in[v] = true
	}
	for _, v := range strict.Initiators {
		if !in[v] {
			t.Errorf("unanimity pick %d missing from any-vote set", v)
		}
	}
	// Precision ordering: unanimity at least as precise (allow tiny
	// noise margin).
	ps := metrics.EvalIdentity(strict.Initiators, sim.seeds).Precision
	pl := metrics.EvalIdentity(loose.Initiators, sim.seeds).Precision
	if ps+0.05 < pl {
		t.Errorf("unanimity precision %g well below any-vote %g", ps, pl)
	}
	// States present for every detection.
	if len(strict.States) != len(strict.Initiators) || len(loose.States) != len(loose.Initiators) {
		t.Error("ensemble states misaligned")
	}
}

func TestEnsembleNestedAcrossThresholds(t *testing.T) {
	sim := simulate(t, 56, 1000, 6000, 30)
	prev := -1
	for votes := 1; votes <= 3; votes++ {
		e, err := NewEnsembleConfig(RIDConfig{Alpha: 3}, []float64{0.1, 0.4, 0.8}, votes)
		if err != nil {
			t.Fatal(err)
		}
		det, err := e.Detect(sim.snap)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(det.Initiators) > prev {
			t.Errorf("votes=%d grew detections to %d (prev %d)", votes, len(det.Initiators), prev)
		}
		prev = len(det.Initiators)
	}
}
