// Package diffusion implements information-diffusion models over weighted
// signed diffusion networks: the paper's MFC (asyMmetric Flipping Cascade,
// Algorithm 1) and the reference models it is contrasted with (IC, LT,
// SIR). Every run returns a Cascade recording the complete ground truth —
// final states, activation links, rounds and flips — which the experiment
// harness uses to evaluate the detectors.
package diffusion

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// Cascade is the full record of one diffusion run over a graph with n
// nodes. Slices indexed by node ID have length n.
type Cascade struct {
	// States holds the final state of every node (+1, -1 or inactive).
	States []sgraph.State
	// ActivatedBy[v] is the node whose attempt produced v's final state
	// (its activation link, Definition 4), or -1 for initiators and
	// never-activated nodes. A flipped node's entry points at the last
	// flipper; because a flipper can be a cascade descendant of its
	// target, the final pointers may contain cycles.
	ActivatedBy []int32
	// FirstActivatedBy[v] is the node that first activated v, or -1.
	// First activations strictly increase in round along parent chains,
	// so these pointers always form the forest of cascade trees rooted at
	// the initiators that the paper describes after Definition 4.
	FirstActivatedBy []int32
	// Round[v] is the round at which v reached its final state, or -1.
	// Initiators have round 0. FirstRound records first activation.
	Round      []int32
	FirstRound []int32
	// Initiators and InitStates record the seed set and its initial
	// states; these are the ground truth for detector evaluation.
	Initiators []int
	InitStates []sgraph.State
	// Rounds is the number of propagation rounds executed.
	Rounds int
	// Attempts counts activation attempts; Flips counts successful state
	// flips of already-active nodes (MFC and Voter only); Exchanges counts
	// gossip contacts (PushPull only).
	Attempts, Flips, Exchanges int
}

// Infected returns the IDs of all active nodes in ascending order.
func (c *Cascade) Infected() []int {
	out := make([]int, 0, len(c.Initiators)*4)
	for v, s := range c.States {
		if s.Active() {
			out = append(out, v)
		}
	}
	return out
}

// SpreadCurve returns the cumulative number of ever-activated nodes after
// each round, index 0 being the initiators. Derived from first-activation
// rounds, so it is exact for every model in this package.
func (c *Cascade) SpreadCurve() []int {
	counts := make([]int, c.Rounds+1)
	for v := range c.States {
		if r := c.FirstRound[v]; r >= 0 {
			if int(r) >= len(counts) {
				// defensive: rounds beyond the recorded horizon
				grown := make([]int, r+1)
				copy(grown, counts)
				counts = grown
			}
			counts[r]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return counts
}

// NumInfected returns the number of active nodes.
func (c *Cascade) NumInfected() int {
	n := 0
	for _, s := range c.States {
		if s.Active() {
			n++
		}
	}
	return n
}

// Errors shared by the simulators.
var (
	ErrNoInitiators   = errors.New("diffusion: empty initiator set")
	ErrStateMismatch  = errors.New("diffusion: len(states) != len(initiators)")
	ErrBadInitiator   = errors.New("diffusion: initiator out of range or duplicated")
	ErrInactiveSeed   = errors.New("diffusion: initiator state must be +1 or -1")
	ErrBadCoefficient = errors.New("diffusion: invalid model coefficient")
)

func checkSeeds(n int, initiators []int, states []sgraph.State) error {
	if len(initiators) == 0 {
		return ErrNoInitiators
	}
	if len(states) != len(initiators) {
		return fmt.Errorf("%w: %d vs %d", ErrStateMismatch, len(states), len(initiators))
	}
	seen := make(map[int]bool, len(initiators))
	for i, u := range initiators {
		if u < 0 || u >= n || seen[u] {
			return fmt.Errorf("%w: node %d", ErrBadInitiator, u)
		}
		seen[u] = true
		if !states[i].Active() {
			return fmt.Errorf("%w: state %v for node %d", ErrInactiveSeed, states[i], u)
		}
	}
	return nil
}

func newCascade(n int, initiators []int, states []sgraph.State) *Cascade {
	c := &Cascade{
		States:           make([]sgraph.State, n),
		ActivatedBy:      make([]int32, n),
		FirstActivatedBy: make([]int32, n),
		Round:            make([]int32, n),
		FirstRound:       make([]int32, n),
		Initiators:       append([]int(nil), initiators...),
		InitStates:       append([]sgraph.State(nil), states...),
	}
	for i := range c.ActivatedBy {
		c.ActivatedBy[i] = -1
		c.FirstActivatedBy[i] = -1
		c.Round[i] = -1
		c.FirstRound[i] = -1
	}
	for i, u := range initiators {
		c.States[u] = states[i]
		c.Round[u] = 0
		c.FirstRound[u] = 0
	}
	return c
}

// countInto folds the finished cascade's run statistics into a CounterSet.
// Nil-safe; every model calls it once at the end of a successful run.
func (c *Cascade) countInto(cs *obs.CounterSet) {
	if cs == nil {
		return
	}
	activated := 0
	for _, r := range c.FirstRound {
		if r >= 0 {
			activated++
		}
	}
	d := &cs.Diffusion
	d.Runs++
	d.Rounds += int64(c.Rounds)
	d.Attempts += int64(c.Attempts)
	d.Activations += int64(activated - len(c.Initiators))
	d.Flips += int64(c.Flips)
	d.Exchanges += int64(c.Exchanges)
}

// RoundProgress is one completed propagation round's summary, delivered
// through MFCConfig.OnRound.
type RoundProgress struct {
	// Round is 1-based (initiators seed round 0).
	Round int
	// NewlyInfected is the number of nodes first activated this round;
	// CumInfected the ever-activated total so far, initiators included.
	NewlyInfected int
	CumInfected   int
	// Flips is the number of successful state flips this round; Attempts
	// the activation attempts made this round.
	Flips    int
	Attempts int
}

// MFCConfig parameterizes the asyMmetric Flipping Cascade model.
type MFCConfig struct {
	// Alpha is the asymmetric boosting coefficient (α > 1 in the paper;
	// α = 1 disables boosting). Positive-link activation probability is
	// min(1, Alpha*w); negative links use w unchanged.
	Alpha float64
	// DisableFlip turns off the state-flipping rule, degrading MFC to a
	// signed independent-cascade model (used by the ablation benches).
	DisableFlip bool
	// OnRound, when non-nil, is invoked synchronously after every
	// completed propagation round — the hook behind cmd/mfcsim -progress.
	// It must not mutate the simulation's state.
	OnRound func(RoundProgress)
	// Counters, when non-nil, accumulates the run's algorithm-depth
	// counts (runs, rounds, attempts, activations, flips) when the
	// simulation finishes. The caller owns the set; MFC only adds.
	Counters *obs.CounterSet
}

func (c MFCConfig) validate() error {
	if c.Alpha < 1 {
		return fmt.Errorf("%w: Alpha must be >= 1, got %g", ErrBadCoefficient, c.Alpha)
	}
	return nil
}

// BoostedWeight returns the MFC activation probability of a diffusion link
// with the given sign and weight under boosting coefficient alpha; see
// sgraph.LinkProbability.
func BoostedWeight(sign sgraph.Sign, w, alpha float64) float64 {
	return sgraph.LinkProbability(sign, w, alpha)
}

// MFC runs Algorithm 1 over the diffusion network g (edges oriented in the
// direction information flows) from the given initiators and initial
// states. It is a thin wrapper over the registry's "mfc" model adapter;
// output is bit-identical for a fixed seed either way. Eligibility per
// round follows the paper exactly: an attempt on v is allowed if v is
// inactive, or if the link (u,v) is positive and v's current state differs
// from u's (the flipping rule). Each directed link is attempted at most
// once over the whole process ("u cannot make any further attempts to
// activate v in subsequent rounds"), which also guarantees termination. On
// success v adopts state s(u)*s(u,v) and becomes recently infected,
// propagating in the next round.
func MFC(g *sgraph.Graph, initiators []int, states []sgraph.State, cfg MFCConfig, rng *xrand.Rand) (*Cascade, error) {
	return (&mfcModel{cfg: cfg}).Run(g, initiators, states, rng)
}

// DefaultAlpha is the boosting coefficient the registry's "mfc" model (and
// the server's legacy alpha field) defaults to — the paper's headline
// setting.
const DefaultAlpha = 3

// mfcModel adapts MFC onto the Model interface. Params: alpha (number
// >= 1, default 3), disable_flip (boolean, default false).
type mfcModel struct {
	cfg MFCConfig
}

func init() {
	Register("mfc", func() Model { return &mfcModel{cfg: MFCConfig{Alpha: DefaultAlpha}} })
	Register("ic", func() Model { return &icModel{} })
}

func (m *mfcModel) Name() string { return "mfc" }

func (m *mfcModel) Validate(params Params) error {
	d := newParamDecoder("mfc", params)
	cfg := m.cfg
	cfg.Alpha = d.Float("alpha", cfg.Alpha)
	cfg.DisableFlip = d.Bool("disable_flip", cfg.DisableFlip)
	if err := d.Err(); err != nil {
		return err
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	m.cfg = cfg
	return nil
}

func (m *mfcModel) SetCounters(cs *obs.CounterSet)    { m.cfg.Counters = cs }
func (m *mfcModel) SetOnRound(fn func(RoundProgress)) { m.cfg.OnRound = fn }

func (m *mfcModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	cfg := m.cfg
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkSeeds(g.NumNodes(), initiators, states); err != nil {
		return nil, err
	}
	c := newCascade(g.NumNodes(), initiators, states)

	attempted := make([]bool, g.NumEdges())

	recent := append([]int(nil), initiators...)
	round := int32(0)
	cumInfected := len(initiators)
	for len(recent) > 0 {
		round++
		var next []int
		newly, flipsBefore, attemptsBefore := 0, c.Flips, c.Attempts
		for _, u := range recent {
			su := c.States[u]
			g.OutIndexed(u, func(i int, e sgraph.Edge) {
				v := e.To
				sv := c.States[v]
				eligible := sv == sgraph.StateInactive ||
					(!cfg.DisableFlip && e.Sign == sgraph.Positive && sv != su)
				if !eligible || attempted[i] {
					return
				}
				attempted[i] = true
				c.Attempts++
				if !rng.Bool(BoostedWeight(e.Sign, e.Weight, cfg.Alpha)) {
					return
				}
				newState := sgraph.StateOf(su, e.Sign)
				if sv.Active() {
					c.Flips++
				} else {
					c.FirstActivatedBy[v] = int32(u)
					c.FirstRound[v] = round
					newly++
				}
				c.States[v] = newState
				c.ActivatedBy[v] = int32(u)
				c.Round[v] = round
				next = append(next, v)
			})
		}
		cumInfected += newly
		if cfg.OnRound != nil && (newly > 0 || c.Flips > flipsBefore || c.Attempts > attemptsBefore) {
			cfg.OnRound(RoundProgress{
				Round:         int(round),
				NewlyInfected: newly,
				CumInfected:   cumInfected,
				Flips:         c.Flips - flipsBefore,
				Attempts:      c.Attempts - attemptsBefore,
			})
		}
		recent = next
	}
	c.Rounds = int(round) - 1
	if c.Rounds < 0 {
		c.Rounds = 0
	}
	c.countInto(cfg.Counters)
	return c, nil
}

// icModel is the classical Independent Cascade model (Kempe et al. 2003)
// on the diffusion network, ignoring link signs for the activation
// probability (p = w) and never flipping: once active, a node keeps the
// state it was first activated with (s(u)*s(u,v), so sign information
// still determines opinions, as in a signed IC). This is both a baseline
// in its own right and MFC with Alpha=1, DisableFlip=true, so it takes no
// params.
type icModel struct {
	counters *obs.CounterSet
}

func (m *icModel) Name() string { return "ic" }

func (m *icModel) Validate(params Params) error {
	return newParamDecoder("ic", params).Err()
}

func (m *icModel) SetCounters(cs *obs.CounterSet) { m.counters = cs }

func (m *icModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	return (&mfcModel{cfg: MFCConfig{Alpha: 1, DisableFlip: true, Counters: m.counters}}).Run(g, initiators, states, rng)
}
