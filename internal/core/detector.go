// Package core implements the paper's contribution: the RID (Rumor
// Initiator Detector) framework for the ISOMIT problem, together with the
// comparison methods of Section IV-B1 (RID-Tree and RID-Positive) and
// rumor centrality (Shah & Zaman), the one comparator from the related
// work beyond the paper's own baselines.
//
// All detectors consume a cascade.Snapshot — the infected signed diffusion
// network at one moment in time — and return the inferred rumor initiators
// (and, for RID, their initial states).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Detection is a detector's output.
type Detection struct {
	// Initiators holds detected initiator node IDs, ascending.
	Initiators []int
	// States holds the inferred initial states, parallel to Initiators.
	// Nil for detectors that identify identities only (RID-Tree,
	// RID-Positive, rumor centrality), per the paper's Section IV-B2.
	States []sgraph.State
	// Confidence optionally scores each detection in [0, 1], parallel to
	// Initiators: tree roots (which must be initiators) get 1; cut points
	// get the improbability of the activation link they sever. Nil for
	// detectors without a natural score.
	Confidence []float64
	// Trees is the number of extracted cascade trees; Components the
	// number of infected connected components.
	Trees, Components int
}

// Order returns the positions of d's initiators (indexes into
// Initiators, States and Confidence) in rank order: descending confidence,
// then ascending node ID, which also orders detections without
// confidence. Node IDs are unique, so the order is total.
func (d *Detection) Order() []int {
	order := make([]int, len(d.Initiators))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if d.Confidence != nil {
			if c := cmp.Compare(d.Confidence[b], d.Confidence[a]); c != 0 {
				return c
			}
		}
		return cmp.Compare(d.Initiators[a], d.Initiators[b])
	})
	return order
}

// Ranked returns the initiators in rank order (see Order).
func (d *Detection) Ranked() []int {
	order := d.Order()
	for i, p := range order {
		order[i] = d.Initiators[p]
	}
	return order
}

// Detector identifies rumor initiators from an infected-network snapshot.
type Detector interface {
	// Name is the label used in experiment reports (e.g. "RID(0.1)").
	Name() string
	// Detect infers the rumor initiators from the snapshot.
	Detect(snap *cascade.Snapshot) (*Detection, error)
}

// ContextDetector is a Detector whose hot loops honor cooperative
// cancellation. RID implements it; serving layers use it to enforce
// per-request deadlines.
type ContextDetector interface {
	Detector
	DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error)
}

// DetectWithContext runs d under ctx when it supports cancellation and
// falls back to a plain Detect (with a single up-front ctx check)
// otherwise. The fast baselines finish in microseconds, so the up-front
// check is the only deadline enforcement they need.
func DetectWithContext(ctx context.Context, d Detector, snap *cascade.Snapshot) (*Detection, error) {
	if cd, ok := d.(ContextDetector); ok {
		return cd.DetectContext(ctx, snap)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.Detect(snap)
}

// ErrUnknownDetector is wrapped by NewDetector for a name outside its
// table. Its text is the served message: the wrapped error reads
// `unknown detector "name"`.
var ErrUnknownDetector = errors.New("unknown detector")

// detectorTable is the one name → constructor table behind ridserve's
// detector field and ridlab's -method flag.
var detectorTable = map[string]func(alpha, beta float64, parallelism int) (Detector, error){
	"rid": func(alpha, beta float64, parallelism int) (Detector, error) {
		return NewRID(RIDConfig{Alpha: alpha, Beta: beta, Parallelism: parallelism})
	},
	"rid-tree":         func(alpha, _ float64, _ int) (Detector, error) { return NewRIDTree(alpha) },
	"rid-positive":     func(float64, float64, int) (Detector, error) { return RIDPositive{}, nil },
	"rumor-centrality": func(float64, float64, int) (Detector, error) { return RumorCentrality{}, nil },
}

// NewDetector builds a detector by name: "rid", "rid-tree",
// "rid-positive" or "rumor-centrality". Zero values select the defaults —
// name "rid", α = 3, β = 0.3 — as an omitted request field does.
// parallelism is forwarded to RID, the one detector that fans out; results
// are identical at every setting. An unknown name returns an error
// wrapping ErrUnknownDetector.
func NewDetector(name string, alpha, beta float64, parallelism int) (Detector, error) {
	if name == "" {
		name = "rid"
	}
	if alpha == 0 {
		alpha = 3
	}
	if beta == 0 {
		beta = 0.3
	}
	build, ok := detectorTable[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDetector, name)
	}
	return build(alpha, beta, parallelism)
}
