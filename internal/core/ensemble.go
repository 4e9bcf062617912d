package core

import (
	"fmt"
	"sort"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Ensemble runs RID at several β values and keeps the initiators flagged
// by at least MinVotes of the sweeps — a confidence-tiered variant of RID
// that trades the single-β choice for a stability vote. States are taken
// from the strictest (largest-β) detection that flagged the node, where
// the per-tree inference is most conservative.
type Ensemble struct {
	detectors []*RID
	minVotes  int
}

// NewEnsembleConfig builds the ensemble from a full base configuration —
// every sweep member shares base (objective, extraction knobs, Parallelism)
// with only Beta replaced by the sweep value. betas must be non-empty and
// minVotes in [1, len(betas)].
func NewEnsembleConfig(base RIDConfig, betas []float64, minVotes int) (*Ensemble, error) {
	if len(betas) == 0 {
		return nil, fmt.Errorf("core: ensemble needs at least one beta")
	}
	if minVotes < 1 || minVotes > len(betas) {
		return nil, fmt.Errorf("core: minVotes %d out of [1,%d]", minVotes, len(betas))
	}
	sorted := append([]float64(nil), betas...)
	sort.Float64s(sorted)
	e := &Ensemble{minVotes: minVotes}
	for _, beta := range sorted {
		cfg := base
		cfg.Beta = beta
		rid, err := NewRID(cfg)
		if err != nil {
			return nil, err
		}
		e.detectors = append(e.detectors, rid)
	}
	return e, nil
}

// Name implements Detector.
func (e *Ensemble) Name() string {
	return fmt.Sprintf("RID-Ensemble(%d/%d)", e.minVotes, len(e.detectors))
}

// Detect implements Detector.
func (e *Ensemble) Detect(snap *cascade.Snapshot) (*Detection, error) {
	votes := make(map[int]int)
	state := make(map[int]sgraph.State)
	var trees, components int
	for _, rid := range e.detectors { // ascending β: later = stricter
		det, err := rid.Detect(snap)
		if err != nil {
			return nil, err
		}
		trees, components = det.Trees, det.Components
		for i, v := range det.Initiators {
			votes[v]++
			state[v] = det.States[i] // strictest detection wins
		}
	}
	out := &Detection{Trees: trees, Components: components}
	for v, n := range votes {
		if n >= e.minVotes {
			out.Initiators = append(out.Initiators, v)
			out.States = append(out.States, state[v])
		}
	}
	sortDetection(out)
	return out, nil
}
