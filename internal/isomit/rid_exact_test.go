package isomit_test

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/isomit"
	"repro/internal/xrand"
)

// TestRIDAgainstExactSmall compares RID's detections with the exhaustive
// exact solver on tiny instances: the exact optimum's network
// log-likelihood must never be worse than RID's detection evaluated under
// the same likelihood, and on easy instances they should coincide.
func TestRIDAgainstExactSmall(t *testing.T) {
	rid, err := core.NewRID(core.RIDConfig{Alpha: 3, Beta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for seed := uint64(0); seed < 12; seed++ {
		rng := xrand.New(seed)
		g, err := isomit.RandomTree(isomit.TreeConfig{
			Nodes: 8, MaxChildren: 3, PositiveRatio: 0.7,
			WeightLow: 0.3, WeightHigh: 0.9,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		seeds, states, err := diffusion.SampleInitiators(8, 2, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := diffusion.MFC(g, seeds, states, diffusion.MFCConfig{Alpha: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumInfected() < 3 {
			continue // too trivial to compare
		}
		snap, err := cascade.NewSnapshot(g, c.States)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := isomit.ExactSmall(g, c.States, isomit.ExactConfig{
			Beta:  2,
			Paths: isomit.PathOpts{Alpha: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		det, err := rid.Detect(snap)
		if err != nil {
			t.Fatal(err)
		}
		ridLL, err := isomit.NetworkLogLikelihood(g, c.States, det.Initiators, det.States, isomit.PathOpts{Alpha: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ridLL > exact.LogLikelihood+1e-9 && len(det.Initiators) <= len(exact.Initiators) {
			t.Errorf("seed %d: RID likelihood %g beats 'exact' %g with no more initiators",
				seed, ridLL, exact.LogLikelihood)
		}
		total++
		if sameSet(det.Initiators, exact.Initiators) {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no usable instances")
	}
	// The heuristic should match the exhaustive optimum on a decent share
	// of easy tree instances.
	if agree*2 < total {
		t.Errorf("RID matched exact on only %d/%d tiny instances", agree, total)
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	for _, v := range b {
		if !in[v] {
			return false
		}
	}
	return true
}
