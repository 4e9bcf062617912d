package trace

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Observation is the per-item payload of a batch detection: one observed
// snapshot (plus optional timing and ground truth) without the network,
// which the batch supplies once — by graph hash or one inline trace — for
// all items. Field encodings match Trace exactly.
type Observation struct {
	Name     string `json:"name,omitempty"`
	Observed []int8 `json:"observed"`
	// Rounds optionally carries partial first-infection timestamps
	// (-1 = unknown), aligned with Observed.
	Rounds []int32 `json:"rounds,omitempty"`
	// Seeds and SeedStates are the ground truth (optional). SeedStates is
	// empty (identity-only truth) or holds one state per seed.
	Seeds      []int  `json:"seeds,omitempty"`
	SeedStates []int8 `json:"seed_states,omitempty"`
}

// Observation views the observation carried by a full trace; the slices
// are shared, not copied.
func (t *Trace) Observation() *Observation {
	return &Observation{
		Name:       t.Name,
		Observed:   t.Observed,
		Rounds:     t.Rounds,
		Seeds:      t.Seeds,
		SeedStates: t.SeedStates,
	}
}

// Trace assembles a full trace from this observation over an existing
// network description (nodes + edges are taken from network; everything
// observational from o).
func (o *Observation) Trace(network *Trace) *Trace {
	return &Trace{
		Version:    Version,
		Name:       o.Name,
		Nodes:      network.Nodes,
		Edges:      network.Edges,
		Observed:   o.Observed,
		Rounds:     o.Rounds,
		Seeds:      o.Seeds,
		SeedStates: o.SeedStates,
	}
}

// Validate checks the observation against a graph of the given node count:
// aligned slices, state codes, rounds and ground truth. Trace.Validate
// applies it to a trace's observational fields.
func (o *Observation) Validate(nodes int) error {
	if len(o.Observed) != nodes {
		return fmt.Errorf("trace: %d observed states for %d nodes", len(o.Observed), nodes)
	}
	for i, c := range o.Observed {
		if _, err := codeToState(c); err != nil {
			return fmt.Errorf("trace: observed[%d]: invalid state code %d (want +1, -1, 0 or %d)", i, c, unknownCode)
		}
	}
	if o.Rounds != nil && len(o.Rounds) != nodes {
		return fmt.Errorf("trace: %d rounds for %d nodes", len(o.Rounds), nodes)
	}
	for i, r := range o.Rounds {
		if r < -1 {
			return fmt.Errorf("trace: rounds[%d]: invalid round %d (want -1 or >= 0)", i, r)
		}
	}
	if len(o.SeedStates) != 0 && len(o.SeedStates) != len(o.Seeds) {
		return fmt.Errorf("trace: %d seed states for %d seeds", len(o.SeedStates), len(o.Seeds))
	}
	seenSeed := make(map[int]bool, len(o.Seeds))
	for i, s := range o.Seeds {
		if s < 0 || s >= nodes {
			return fmt.Errorf("trace: seeds[%d]: node %d out of range for %d nodes", i, s, nodes)
		}
		if seenSeed[s] {
			return fmt.Errorf("trace: seeds[%d]: duplicate seed %d", i, s)
		}
		seenSeed[s] = true
	}
	for i, c := range o.SeedStates {
		if c != 1 && c != -1 {
			return fmt.Errorf("trace: seed_states[%d]: state code %d not concrete (want +1 or -1)", i, c)
		}
	}
	return nil
}

// SnapshotOn assembles a snapshot from this observation over an
// already-built graph. The observation must have passed Validate for the
// graph's node count.
func (o *Observation) SnapshotOn(g *sgraph.Graph) (*cascade.Snapshot, error) {
	if g.NumNodes() != len(o.Observed) {
		return nil, fmt.Errorf("trace: graph has %d nodes, observation %d", g.NumNodes(), len(o.Observed))
	}
	return o.snapshot(g)
}

// snapshot binds the decoded observed states (and rounds, if any) to g.
func (o *Observation) snapshot(g *sgraph.Graph) (*cascade.Snapshot, error) {
	states, err := o.states()
	if err != nil {
		return nil, err
	}
	if o.Rounds != nil {
		return cascade.NewSnapshotWithRounds(g, states, o.Rounds)
	}
	return cascade.NewSnapshot(g, states)
}

// states decodes the observed state codes.
func (o *Observation) states() ([]sgraph.State, error) {
	states := make([]sgraph.State, len(o.Observed))
	for i, c := range o.Observed {
		s, err := codeToState(c)
		if err != nil {
			return nil, err
		}
		states[i] = s
	}
	return states, nil
}

// GroundTruth decodes the seed set and states, or nil if absent. Seeds
// without seed states are identity-only ground truth: the seeds come back
// with nil states.
func (o *Observation) GroundTruth() ([]int, []sgraph.State, error) {
	if len(o.Seeds) == 0 {
		return nil, nil, nil
	}
	if len(o.SeedStates) == 0 {
		return append([]int(nil), o.Seeds...), nil, nil
	}
	if len(o.SeedStates) != len(o.Seeds) {
		return nil, nil, fmt.Errorf("trace: %d seed states for %d seeds", len(o.SeedStates), len(o.Seeds))
	}
	states := make([]sgraph.State, len(o.SeedStates))
	for i, c := range o.SeedStates {
		s, err := codeToState(c)
		if err != nil {
			return nil, nil, err
		}
		if !s.Active() {
			return nil, nil, fmt.Errorf("trace: seed state %v not concrete", s)
		}
		states[i] = s
	}
	return append([]int(nil), o.Seeds...), states, nil
}
