package diffusion

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func init() {
	Register("pushpull", func() Model {
		return &pushPullModel{cfg: PushPullConfig{MaxRounds: DefaultPushPullMaxRounds, Stall: DefaultPushPullStall}}
	})
}

// Registry defaults for the "pushpull" model.
const (
	DefaultPushPullMaxRounds = 10000
	DefaultPushPullStall     = 10
)

// PushPullConfig parameterizes the signed push/pull gossip model.
type PushPullConfig struct {
	// MaxRounds caps the number of gossip rounds; 0 defaults to 10000.
	MaxRounds int
	// Stall terminates the run after this many consecutive rounds with no
	// new activation; 0 defaults to 10.
	Stall int
	// Counters, when non-nil, accumulates the run's diffusion counters.
	Counters *obs.CounterSet
}

func (c PushPullConfig) validate() error {
	if c.MaxRounds < 0 {
		return fmt.Errorf("%w: PushPull MaxRounds must be non-negative, got %d", ErrBadCoefficient, c.MaxRounds)
	}
	if c.Stall < 0 {
		return fmt.Errorf("%w: PushPull Stall must be non-negative, got %d", ErrBadCoefficient, c.Stall)
	}
	return nil
}

// pushPullModel is round-based push/pull rumour spreading adapted to signed
// topologies, after Patsonakis & Roussopoulos's study of rumour spreading
// in social networks with negative links. Each round has two half-steps:
//
//   - push: every node that was active at the round's start contacts one
//     uniform out-neighbor; the contact succeeds with the edge weight, and
//     an inactive target adopts the pusher's opinion multiplied by the link
//     sign (a foe hears the rumour but believes its negation).
//   - pull: every still-inactive node queries one uniform *positive*
//     in-neighbor — nodes only solicit rumours from friends — and, if that
//     neighbor was active at the round's start, adopts its opinion with
//     probability the edge weight.
//
// Once active a node's opinion is fixed (no flipping). Exchanges counts
// every contact made, successful or not; Attempts counts contacts that
// targeted an inactive node. The run ends when every node is active, after
// MaxRounds, or after Stall consecutive rounds without a new activation.
// Params: max_rounds (integer >= 0, default 0 = 10000), stall (integer
// >= 0, default 0 = 10).
type pushPullModel struct {
	cfg PushPullConfig
}

func (m *pushPullModel) Name() string { return "pushpull" }

func (m *pushPullModel) Validate(params Params) error {
	d := newParamDecoder("pushpull", params)
	cfg := m.cfg
	cfg.MaxRounds = d.Int("max_rounds", cfg.MaxRounds)
	cfg.Stall = d.Int("stall", cfg.Stall)
	if err := d.Err(); err != nil {
		return err
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	m.cfg = cfg
	return nil
}

func (m *pushPullModel) SetCounters(cs *obs.CounterSet) { m.cfg.Counters = cs }

func (m *pushPullModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	cfg := m.cfg
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkSeeds(g.NumNodes(), initiators, states); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	c := newCascade(n, initiators, states)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultPushPullMaxRounds
	}
	stall := cfg.Stall
	if stall <= 0 {
		stall = DefaultPushPullStall
	}
	// atStart snapshots which nodes were active when the round began, so
	// both half-steps act on a consistent view and a node activated by a
	// push cannot be pulled from in the same round.
	atStart := make([]bool, n)
	startState := make([]sgraph.State, n)
	activeCount := len(initiators)
	activate := func(v, from, round int, st sgraph.State) {
		c.States[v] = st
		c.ActivatedBy[v] = int32(from)
		c.FirstActivatedBy[v] = int32(from)
		c.Round[v] = int32(round)
		c.FirstRound[v] = int32(round)
		activeCount++
	}
	stalled := 0
	for round := 1; round <= maxRounds && activeCount < n && stalled < stall; round++ {
		for v := 0; v < n; v++ {
			atStart[v] = c.States[v].Active()
			startState[v] = c.States[v]
		}
		before := activeCount
		// Push half-step: active nodes gossip to one random out-neighbor.
		for u := 0; u < n; u++ {
			if !atStart[u] {
				continue
			}
			out := g.OutDegree(u)
			if out == 0 {
				continue
			}
			pick := rng.Intn(out)
			var chosen sgraph.Edge
			i := 0
			g.Out(u, func(e sgraph.Edge) {
				if i == pick {
					chosen = e
				}
				i++
			})
			c.Exchanges++
			if c.States[chosen.To].Active() {
				continue // target already holds an opinion
			}
			c.Attempts++
			if !rng.Bool(chosen.Weight) {
				continue
			}
			activate(chosen.To, u, round, sgraph.StateOf(startState[u], chosen.Sign))
		}
		// Pull half-step: inactive nodes query one random trusted
		// (positive) in-neighbor.
		for v := 0; v < n; v++ {
			if c.States[v].Active() {
				continue
			}
			posIn := 0
			g.In(v, func(e sgraph.Edge) {
				if e.Sign > 0 {
					posIn++
				}
			})
			if posIn == 0 {
				continue
			}
			pick := rng.Intn(posIn)
			var chosen sgraph.Edge
			chosen.From = -1
			i := 0
			g.In(v, func(e sgraph.Edge) {
				if e.Sign <= 0 {
					return
				}
				if i == pick {
					chosen = e
				}
				i++
			})
			c.Exchanges++
			if !atStart[chosen.From] {
				continue // queried a neighbor with nothing to tell
			}
			c.Attempts++
			if !rng.Bool(chosen.Weight) {
				continue
			}
			activate(v, chosen.From, round, startState[chosen.From])
		}
		c.Rounds = round
		if activeCount == before {
			stalled++
		} else {
			stalled = 0
		}
	}
	c.countInto(cfg.Counters)
	return c, nil
}
