// Package gen builds synthetic weighted signed directed networks: generic
// random-graph models (Erdős–Rényi, preferential attachment) and dataset
// presets that stand in for the SNAP Epinions/Slashdot networks the paper
// evaluates on (see DESIGN.md §2 for the substitution rationale).
package gen

import (
	"fmt"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// Config are the common knobs of the random-graph generators.
type Config struct {
	// Nodes is the number of nodes; must be positive.
	Nodes int
	// Edges is the target number of directed links. Generators may fall a
	// few edges short on tiny graphs where distinct pairs run out.
	Edges int
	// PositiveRatio is the probability that a link is positive (trust).
	// The paper's datasets sit near 0.85 (Epinions) and 0.77 (Slashdot).
	PositiveRatio float64
	// WeightLow/WeightHigh bound the uniform link weights. Zero values
	// default to [0.01, 0.3), matching the effective range of the Jaccard
	// weighting with the U[0,0.1) fallback.
	WeightLow, WeightHigh float64
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("gen: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Edges < 0 {
		return fmt.Errorf("gen: Edges must be non-negative, got %d", c.Edges)
	}
	if c.PositiveRatio < 0 || c.PositiveRatio > 1 {
		return fmt.Errorf("gen: PositiveRatio must be in [0,1], got %g", c.PositiveRatio)
	}
	if c.WeightLow < 0 || c.WeightHigh > 1 || (c.WeightHigh != 0 && c.WeightLow > c.WeightHigh) {
		return fmt.Errorf("gen: weight bounds [%g,%g] invalid", c.WeightLow, c.WeightHigh)
	}
	return nil
}

func (c Config) weights() (lo, hi float64) {
	lo, hi = c.WeightLow, c.WeightHigh
	if lo == 0 && hi == 0 {
		lo, hi = 0.01, 0.3
	}
	return lo, hi
}

func (c Config) sign(rng *xrand.Rand) sgraph.Sign {
	if rng.Bool(c.PositiveRatio) {
		return sgraph.Positive
	}
	return sgraph.Negative
}

// ErdosRenyi samples cfg.Edges distinct directed links uniformly among all
// ordered pairs.
func ErdosRenyi(cfg Config, rng *xrand.Rand) (*sgraph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxEdges := cfg.Nodes * (cfg.Nodes - 1)
	if cfg.Edges > maxEdges {
		return nil, fmt.Errorf("gen: %d edges exceed maximum %d for %d nodes", cfg.Edges, maxEdges, cfg.Nodes)
	}
	lo, hi := cfg.weights()
	b := sgraph.NewBuilder(cfg.Nodes)
	seen := make(map[int64]bool, cfg.Edges)
	for b.Len() < cfg.Edges {
		u := rng.Intn(cfg.Nodes)
		v := rng.Intn(cfg.Nodes)
		if u == v {
			continue
		}
		key := int64(u)*int64(cfg.Nodes) + int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v, cfg.sign(rng), rng.Range(lo, hi))
	}
	return b.Build()
}

// PreferentialAttachment grows a directed signed network with heavy-tailed
// in-degree: nodes arrive one at a time and wire ~Edges/Nodes out-links
// each, choosing targets proportionally to in-degree + 1 (Bollobás-style
// smoothing). A small fraction of links is reciprocated and a substantial
// fraction closes triangles (a new link targets a neighbor's neighbor), as
// in real social graphs — the triadic closure is what gives linked pairs
// the non-trivial Jaccard coefficients the paper's weighting scheme relies
// on.
func PreferentialAttachment(cfg Config, rng *xrand.Rand) (*sgraph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes < 2 && cfg.Edges > 0 {
		return nil, fmt.Errorf("gen: need at least 2 nodes for edges")
	}
	lo, hi := cfg.weights()
	b := sgraph.NewBuilder(cfg.Nodes)

	// targets repeats each node once per unit of in-degree (plus the
	// +1 smoothing via uniform fallback below), giving O(1) proportional
	// sampling. out tracks signed adjacency for triadic closure.
	type arc struct {
		to   int32
		sign sgraph.Sign
	}
	targets := make([]int32, 0, cfg.Edges+cfg.Nodes)
	out := make([][]arc, cfg.Nodes)
	type pair struct{ u, v int32 }
	seen := make(map[pair]bool, cfg.Edges)
	addEdge := func(u, v int, sig sgraph.Sign, reciprocate bool) bool {
		if u == v || seen[pair{int32(u), int32(v)}] {
			return false
		}
		seen[pair{int32(u), int32(v)}] = true
		b.AddEdge(u, v, sig, rng.Range(lo, hi))
		targets = append(targets, int32(v))
		out[u] = append(out[u], arc{to: int32(v), sign: sig})
		if reciprocate && !seen[pair{int32(v), int32(u)}] && b.Len() < cfg.Edges {
			seen[pair{int32(v), int32(u)}] = true
			// Reciprocated relations overwhelmingly share polarity in
			// real signed networks.
			back := sig
			if rng.Bool(0.1) {
				back = cfg.sign(rng)
			}
			b.AddEdge(v, u, back, rng.Range(lo, hi))
			targets = append(targets, int32(u))
			out[v] = append(out[v], arc{to: int32(u), sign: back})
		}
		return true
	}

	// Seed a small ring so early nodes have in-degree.
	seedN := 3
	if seedN > cfg.Nodes {
		seedN = cfg.Nodes
	}
	for i := 0; i < seedN && b.Len() < cfg.Edges; i++ {
		addEdge(i, (i+1)%seedN, cfg.sign(rng), false)
	}

	perNode := 1
	if cfg.Nodes > 0 {
		perNode = cfg.Edges / cfg.Nodes
		if perNode < 1 {
			perNode = 1
		}
	}
	const (
		reciprocity = 0.2 // fraction of links answered with a back-link
		closure     = 0.5 // fraction of extra links that close a triangle
	)
	for u := seedN; u < cfg.Nodes && b.Len() < cfg.Edges; u++ {
		for d := 0; d < perNode && b.Len() < cfg.Edges; d++ {
			// The sign is drawn up front from the configured ratio (so the
			// global sign mixture is exact); closure then *prefers* a
			// two-hop partner whose sign product matches it, biasing
			// triangles toward structural balance as in real signed
			// networks (Leskovec et al. 2010).
			sig := cfg.sign(rng)
			v := u
			for attempts := 0; attempts < 20; attempts++ {
				switch {
				case d > 0 && len(out[u]) > 0 && rng.Bool(closure):
					// Triadic closure: follow someone a current
					// neighbor follows, preferring a balanced triangle.
					a1 := out[u][rng.Intn(len(out[u]))]
					if len(out[a1.to]) == 0 {
						continue
					}
					a2 := out[a1.to][rng.Intn(len(out[a1.to]))]
					if a1.sign*a2.sign != sig && attempts < 15 {
						continue // keep looking for a balanced closure
					}
					v = int(a2.to)
				case len(targets) > 0 && rng.Bool(0.85):
					// Preferential by in-degree.
					v = int(targets[rng.Intn(len(targets))])
				default:
					// Uniform (the +1 smoothing).
					v = rng.Intn(u)
				}
				if v != u && !seen[pair{int32(u), int32(v)}] {
					break
				}
			}
			addEdge(u, v, sig, rng.Bool(reciprocity))
		}
	}
	// Top up with uniform random links until the edge budget is met.
	for attempts := 0; b.Len() < cfg.Edges && attempts < 50*cfg.Edges; attempts++ {
		u := rng.Intn(cfg.Nodes)
		v := rng.Intn(cfg.Nodes)
		addEdge(u, v, cfg.sign(rng), false)
	}
	return b.Build()
}
