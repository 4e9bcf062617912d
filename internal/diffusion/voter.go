package diffusion

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func init() {
	Register("voter", func() Model { return &voterModel{cfg: VoterConfig{Rounds: DefaultVoterRounds}} })
}

// DefaultVoterRounds is the registry default for the "voter" model's round
// count (matching the cmd/mfcsim flag default).
const DefaultVoterRounds = 30

// VoterConfig parameterizes the signed voter model.
type VoterConfig struct {
	// Rounds is the number of synchronous update rounds; must be
	// positive.
	Rounds int
	// Counters, when non-nil, accumulates the run's diffusion counters.
	Counters *obs.CounterSet
}

// voterModel is the signed voter model of Li et al. (WSDM 2013) — the
// diffusion model underlying the signed influence-maximization work the
// paper compares against in Table I. Each round, every node with at least
// one active in-neighbor picks one of its in-links uniformly at random; if
// the chosen neighbor is active, the node adopts that neighbor's opinion
// multiplied by the link sign (trust copies the opinion, distrust inverts
// it). Already-active nodes keep re-sampling and may change opinion every
// round — the defining difference from cascade models, where activation
// freezes (IC) or flips only through trusted links (MFC).
//
// The returned cascade records the states after the final round;
// ActivatedBy/FirstActivatedBy track the neighbor whose opinion was last/
// first adopted. Params: rounds (integer >= 1, default 30).
type voterModel struct {
	cfg VoterConfig
}

func (m *voterModel) Name() string { return "voter" }

func (m *voterModel) Validate(params Params) error {
	d := newParamDecoder("voter", params)
	cfg := m.cfg
	cfg.Rounds = d.Int("rounds", cfg.Rounds)
	if err := d.Err(); err != nil {
		return err
	}
	if cfg.Rounds < 1 {
		return fmt.Errorf("%w: Voter Rounds must be positive, got %d", ErrBadCoefficient, cfg.Rounds)
	}
	m.cfg = cfg
	return nil
}

func (m *voterModel) SetCounters(cs *obs.CounterSet) { m.cfg.Counters = cs }

func (m *voterModel) Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error) {
	cfg := m.cfg
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("%w: Voter Rounds must be positive, got %d", ErrBadCoefficient, cfg.Rounds)
	}
	if err := checkSeeds(g.NumNodes(), initiators, states); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	c := newCascade(n, initiators, states)
	isSeed := make([]bool, n)
	for _, u := range initiators {
		isSeed[u] = true
	}
	cur := append([]sgraph.State(nil), c.States...)
	next := make([]sgraph.State, n)
	for round := 1; round <= cfg.Rounds; round++ {
		copy(next, cur)
		for v := 0; v < n; v++ {
			if isSeed[v] {
				continue // seeds are stubborn, as in the IM literature
			}
			in := g.InDegree(v)
			if in == 0 {
				continue
			}
			pick := rng.Intn(in)
			var chosen sgraph.Edge
			i := 0
			g.In(v, func(e sgraph.Edge) {
				if i == pick {
					chosen = e
				}
				i++
			})
			su := cur[chosen.From]
			if !su.Active() {
				continue // listened to a silent neighbor: no change
			}
			c.Attempts++
			newState := sgraph.StateOf(su, chosen.Sign)
			if cur[v].Active() && newState != cur[v] {
				c.Flips++
			}
			if !cur[v].Active() {
				c.FirstActivatedBy[v] = int32(chosen.From)
				c.FirstRound[v] = int32(round)
			}
			if newState != cur[v] || c.ActivatedBy[v] == -1 {
				c.ActivatedBy[v] = int32(chosen.From)
				c.Round[v] = int32(round)
			}
			next[v] = newState
		}
		copy(cur, next)
		c.Rounds = round
	}
	copy(c.States, cur)
	c.countInto(cfg.Counters)
	return c, nil
}
