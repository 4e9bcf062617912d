package repro

import (
	"repro/internal/balance"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// Re-exported substrate types. Graph is an immutable weighted signed
// directed graph; build one with NewGraphBuilder, a generator, or
// LoadDataset.
type (
	Graph        = sgraph.Graph
	GraphBuilder = sgraph.Builder
	Edge         = sgraph.Edge
	Sign         = sgraph.Sign
	State        = sgraph.State
	Stats        = sgraph.Stats

	// Cascade is the full record of one diffusion run; Snapshot is the
	// observed infected network handed to the detectors.
	Cascade  = diffusion.Cascade
	Snapshot = cascade.Snapshot

	// Detector is anything that can identify rumor initiators; Detection
	// its output. RID is the paper's method.
	Detector  = core.Detector
	Detection = core.Detection
	RID       = core.RID
	RIDConfig = core.RIDConfig

	// Rand is the deterministic PRNG used throughout; derive one per
	// experiment with NewRand.
	Rand = xrand.Rand
)

// Link polarities and node states.
const (
	Positive = sgraph.Positive
	Negative = sgraph.Negative

	StatePositive = sgraph.StatePositive
	StateNegative = sgraph.StateNegative
	StateInactive = sgraph.StateInactive
	StateUnknown  = sgraph.StateUnknown
)

// RID objectives (see core.Objective).
const (
	ObjectiveLocal     = core.ObjectiveLocal
	ObjectivePartition = core.ObjectivePartition
)

// NewRand returns a deterministic generator seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewGraphBuilder returns a builder for a signed graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return sgraph.NewBuilder(n) }

// LoadDataset materializes a synthetic stand-in for one of the paper's
// Table II networks ("Epinions" or "Slashdot") at the given scale in
// (0, 1], Jaccard-weighted per the paper's setup. Real SNAP files can be
// parsed instead with the internal/dataset package.
func LoadDataset(name string, scale float64, rng *Rand) (*Graph, error) {
	return dataset.Load(name, scale, rng)
}

// GenerateNetwork builds a synthetic signed social network with the given
// node and edge counts and positive-link ratio (preferential attachment
// with triadic closure), then applies the paper's Jaccard weighting.
func GenerateNetwork(nodes, edges int, positiveRatio float64, rng *Rand) (*Graph, error) {
	g, err := gen.PreferentialAttachment(gen.Config{
		Nodes: nodes, Edges: edges, PositiveRatio: positiveRatio,
	}, rng)
	if err != nil {
		return nil, err
	}
	return sgraph.WeightByJaccard(g, 0.1, rng), nil
}

// SimConfig parameterizes SimulateMFC.
type SimConfig struct {
	// Initiators is the seed set; States their initial opinions (+1/-1).
	// Leave both nil to sample N random initiators with positive ratio
	// Theta, as in the paper's protocol.
	Initiators []int
	States     []State
	N          int
	Theta      float64
	// Alpha is the asymmetric boosting coefficient (default 3).
	Alpha float64
}

// SimulateMFC reverses the social network into its diffusion network
// (Definition 2) and runs the MFC model (Algorithm 1) from the configured
// initiators. It returns the cascade record, the diffusion network it ran
// on, and the seed set used.
func SimulateMFC(social *Graph, cfg SimConfig, rng *Rand) (*Cascade, *Graph, error) {
	dif := social.Reverse()
	if cfg.Alpha == 0 {
		cfg.Alpha = 3
	}
	seeds, states := cfg.Initiators, cfg.States
	if seeds == nil {
		n := cfg.N
		if n == 0 {
			n = 1
		}
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.5
		}
		var err error
		seeds, states, err = diffusion.SampleInitiators(dif.NumNodes(), n, theta, rng)
		if err != nil {
			return nil, nil, err
		}
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: cfg.Alpha}, rng)
	if err != nil {
		return nil, nil, err
	}
	return c, dif, nil
}

// NewSnapshot pairs a diffusion network with observed node states.
func NewSnapshot(diffusionNet *Graph, states []State) (*Snapshot, error) {
	return cascade.NewSnapshot(diffusionNet, states)
}

// NewSnapshotWithRounds additionally attaches partial first-infection
// timestamps (-1 = unknown); extraction prunes candidate activation links
// that would run backward in time. An extension beyond the paper's
// state-only snapshots.
func NewSnapshotWithRounds(diffusionNet *Graph, states []State, rounds []int32) (*Snapshot, error) {
	return cascade.NewSnapshotWithRounds(diffusionNet, states, rounds)
}

// SampleRounds reveals each infected node's first-infection round with the
// given probability (-1 elsewhere), for NewSnapshotWithRounds.
func SampleRounds(c *Cascade, keepFraction float64, rng *Rand) []int32 {
	return diffusion.SampleRounds(c, keepFraction, rng)
}

// MaskStates hides each active state with the given probability, modelling
// partially observed networks ("?" states).
func MaskStates(states []State, fraction float64, rng *Rand) []State {
	return diffusion.MaskStates(states, fraction, rng)
}

// HideInfected resets each active state to inactive with the given
// probability, modelling infections that go entirely unobserved.
func HideInfected(states []State, fraction float64, rng *Rand) []State {
	return diffusion.HideInfected(states, fraction, rng)
}

// NewRID returns the paper's Rumor Initiator Detector.
func NewRID(cfg RIDConfig) (*RID, error) { return core.NewRID(cfg) }

// NewRIDTree returns the RID-Tree baseline (extracted-forest roots).
func NewRIDTree(alpha float64) (Detector, error) { return core.NewRIDTree(alpha) }

// NewRIDPositive returns the RID-Positive baseline (positive links only).
func NewRIDPositive() Detector { return core.RIDPositive{} }

// NewRumorCentrality returns the Shah-Zaman rumor-centrality comparator.
func NewRumorCentrality() Detector { return core.RumorCentrality{} }

// NewJordanCenter returns the distance-center (Jordan center) comparator.
func NewJordanCenter() Detector { return core.JordanCenter{} }

// NewDegreeMax returns the highest-degree-per-component comparator.
func NewDegreeMax() Detector { return core.DegreeMax{} }

// SimulateVoter runs the signed voter model (Li et al., WSDM 2013) for the
// given number of rounds from explicit or sampled initiators, mirroring
// SimulateMFC.
func SimulateVoter(social *Graph, cfg SimConfig, rounds int, rng *Rand) (*Cascade, *Graph, error) {
	dif := social.Reverse()
	seeds, states := cfg.Initiators, cfg.States
	if seeds == nil {
		n := cfg.N
		if n == 0 {
			n = 1
		}
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.5
		}
		var err error
		seeds, states, err = diffusion.SampleInitiators(dif.NumNodes(), n, theta, rng)
		if err != nil {
			return nil, nil, err
		}
	}
	c, err := diffusion.Voter(dif, seeds, states, diffusion.VoterConfig{Rounds: rounds}, rng)
	if err != nil {
		return nil, nil, err
	}
	return c, dif, nil
}

// BalanceCensus is a signed-triangle census; see internal/balance.
type BalanceCensus = balance.Census

// TriangleCensus counts signed triangles and their balance.
func TriangleCensus(g *Graph) BalanceCensus { return balance.TriangleCensus(g) }
