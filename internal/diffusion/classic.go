package diffusion

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func init() {
	Register("lt", func() Model { return &ltModel{} })
	Register("sir", func() Model { return &sirModel{cfg: SIRConfig{Beta: DefaultSIRBeta, Gamma: DefaultSIRGamma}} })
}

// LTConfig parameterizes the Linear Threshold model.
type LTConfig struct {
	// MaxRounds caps the number of rounds; 0 means no cap (the model
	// terminates on its own after at most n rounds anyway).
	MaxRounds int
	// Counters, when non-nil, accumulates the run's diffusion counters
	// when the simulation finishes. The caller owns the set.
	Counters *obs.CounterSet
}

// ltModel is the Linear Threshold model (Kempe et al. 2003) on the
// diffusion network, ignoring link signs: each node v draws a threshold θv
// uniform in [0,1] and activates once the summed weight of its active
// in-neighbors reaches θv. Activated nodes adopt the majority-signed
// opinion of the in-neighbor mass that activated them, so the returned
// cascade still carries signed states for comparison with MFC. In-edge
// weights are used as-is; the model does not normalize them (callers
// wanting the classical Σw ≤ 1 premise should prepare weights
// accordingly). Params: max_rounds (integer >= 0, default 0 = no cap).
type ltModel struct {
	cfg LTConfig
}

func (m *ltModel) Name() string { return "lt" }

func (m *ltModel) Validate(params Params) error {
	d := newParamDecoder("lt", params)
	cfg := m.cfg
	cfg.MaxRounds = d.Int("max_rounds", cfg.MaxRounds)
	if err := d.Err(); err != nil {
		return err
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("%w: LT MaxRounds must be non-negative, got %d", ErrBadCoefficient, cfg.MaxRounds)
	}
	m.cfg = cfg
	return nil
}

func (m *ltModel) SetCounters(cs *obs.CounterSet) { m.cfg.Counters = cs }

func (m *ltModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	cfg := m.cfg
	if err := checkSeeds(g.NumNodes(), initiators, states); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	c := newCascade(n, initiators, states)
	theta := make([]float64, n)
	for v := range theta {
		theta[v] = rng.Float64()
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = n + 1
	}
	active := func(v int) bool { return c.States[v].Active() }
	for round := 1; round <= maxRounds; round++ {
		var newlyActive []int
		for v := 0; v < n; v++ {
			if active(v) {
				continue
			}
			var mass, posMass float64
			bestIn := -1
			var bestW float64
			g.In(v, func(e sgraph.Edge) {
				if !active(e.From) {
					return
				}
				mass += e.Weight
				if sgraph.StateOf(c.States[e.From], e.Sign) == sgraph.StatePositive {
					posMass += e.Weight
				}
				if e.Weight > bestW {
					bestW, bestIn = e.Weight, e.From
				}
			})
			if bestIn < 0 {
				continue
			}
			c.Attempts++
			if mass < theta[v] {
				continue
			}
			st := sgraph.StateNegative
			if posMass*2 >= mass {
				st = sgraph.StatePositive
			}
			c.States[v] = st
			c.ActivatedBy[v] = int32(bestIn)
			c.FirstActivatedBy[v] = int32(bestIn)
			c.Round[v] = int32(round)
			c.FirstRound[v] = int32(round)
			newlyActive = append(newlyActive, v)
		}
		if len(newlyActive) == 0 {
			c.Rounds = round - 1
			c.countInto(cfg.Counters)
			return c, nil
		}
		c.Rounds = round
	}
	c.countInto(cfg.Counters)
	return c, nil
}

// Default SIR coefficients used by the registry's "sir" model (matching
// the cmd/mfcsim flag defaults).
const (
	DefaultSIRBeta  = 2
	DefaultSIRGamma = 0.3
)

// SIRConfig parameterizes the discrete-time SIR model.
type SIRConfig struct {
	// Beta scales per-link infection probability: an infectious node u
	// infects susceptible v with probability min(1, Beta*w(u,v)) each
	// round while u is infectious. Must be positive.
	Beta float64
	// Gamma is the per-round recovery probability of an infectious node.
	// Must be in (0, 1].
	Gamma float64
	// MaxRounds caps simulation length; 0 defaults to 10000.
	MaxRounds int
	// Counters, when non-nil, accumulates the run's diffusion counters.
	Counters *obs.CounterSet
}

func (c SIRConfig) validate() error {
	if c.Beta <= 0 {
		return fmt.Errorf("%w: SIR Beta must be positive, got %g", ErrBadCoefficient, c.Beta)
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		return fmt.Errorf("%w: SIR Gamma must be in (0,1], got %g", ErrBadCoefficient, c.Gamma)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("%w: SIR MaxRounds must be non-negative, got %d", ErrBadCoefficient, c.MaxRounds)
	}
	return nil
}

// sirModel is a discrete-time Susceptible-Infectious-Recovered epidemic
// (Hethcote 2000) on the diffusion network, ignoring signs except that the
// signed opinion a node would adopt (s(u)*s(u,v)) is still recorded in
// States for uniformity with the other models. Recovered nodes keep their
// state but stop transmitting. The returned cascade marks every ever-
// infected node active; Round records first infection. Params: beta
// (number > 0, default 2), gamma (number in (0,1], default 0.3),
// max_rounds (integer >= 0, default 0 = 10000).
type sirModel struct {
	cfg SIRConfig
}

func (m *sirModel) Name() string { return "sir" }

func (m *sirModel) Validate(params Params) error {
	d := newParamDecoder("sir", params)
	cfg := m.cfg
	cfg.Beta = d.Float("beta", cfg.Beta)
	cfg.Gamma = d.Float("gamma", cfg.Gamma)
	cfg.MaxRounds = d.Int("max_rounds", cfg.MaxRounds)
	if err := d.Err(); err != nil {
		return err
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	m.cfg = cfg
	return nil
}

func (m *sirModel) SetCounters(cs *obs.CounterSet) { m.cfg.Counters = cs }

func (m *sirModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	cfg := m.cfg
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkSeeds(g.NumNodes(), initiators, states); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	c := newCascade(n, initiators, states)
	infectious := make([]bool, n)
	for _, u := range initiators {
		infectious[u] = true
	}
	current := append([]int(nil), initiators...)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	for round := 1; round <= maxRounds && len(current) > 0; round++ {
		var stillInfectious []int
		for _, u := range current {
			g.Out(u, func(e sgraph.Edge) {
				v := e.To
				if c.States[v].Active() {
					return
				}
				c.Attempts++
				p := cfg.Beta * e.Weight
				if p > 1 {
					p = 1
				}
				if !rng.Bool(p) {
					return
				}
				c.States[v] = sgraph.StateOf(c.States[u], e.Sign)
				c.ActivatedBy[v] = int32(u)
				c.FirstActivatedBy[v] = int32(u)
				c.Round[v] = int32(round)
				c.FirstRound[v] = int32(round)
				infectious[v] = true
				stillInfectious = append(stillInfectious, v)
			})
			if rng.Bool(cfg.Gamma) {
				infectious[u] = false
			} else {
				stillInfectious = append(stillInfectious, u)
			}
		}
		current = stillInfectious
		c.Rounds = round
	}
	c.countInto(cfg.Counters)
	return c, nil
}
