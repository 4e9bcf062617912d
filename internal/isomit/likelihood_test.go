package isomit

import (
	"fmt"
	"math"

	"repro/internal/sgraph"
)

// G is the paper's per-link likelihood factor (Section III-B): for a
// diffusion link x->y with the given sign and weight, between node states
// su=s(x) and sv=s(y),
//
//	min(1, alpha*w)  if consistent and the link is positive,
//	w                if consistent and the link is negative,
//	0                if sign-inconsistent (s(x)*s(x,y) != s(y)).
func G(su sgraph.State, sign sgraph.Sign, sv sgraph.State, w, alpha float64) float64 {
	if !su.Active() || !sv.Active() {
		return 0
	}
	if sgraph.StateOf(su, sign) != sv {
		return 0
	}
	return sgraph.LinkProbability(sign, w, alpha)
}

// PathOpts bounds the exact path enumeration. Enumerating all paths is
// exponential in general — the paper proves the exact problem NP-hard — so
// these caps keep evaluation tractable on the small graphs where exact
// values are wanted.
type PathOpts struct {
	// Alpha is the MFC boosting coefficient.
	Alpha float64
	// MaxLen caps path length in edges; 0 defaults to 8.
	MaxLen int
	// MaxPaths caps the number of contributing paths per (initiator,
	// target) pair; 0 defaults to 100000.
	MaxPaths int
}

func (o PathOpts) withDefaults() PathOpts {
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.MaxLen == 0 {
		o.MaxLen = 8
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 100000
	}
	return o
}

// NodeProbability computes P(u, s(u) | I, S) per Section III-B: one minus
// the product over all simple paths p from each initiator to u of
// (1 − Π_{(x,y)∈p} g(...)), with node states taken from states except that
// initiators assume their S values. For u ∈ I the paper's single-node base
// case applies: 1 if the assumed state matches the observation (or the
// observation is unknown), else 0.
func NodeProbability(g *sgraph.Graph, states []sgraph.State, initiators []int, initStates []sgraph.State, u int, opts PathOpts) (float64, error) {
	if len(initiators) != len(initStates) {
		return 0, fmt.Errorf("isomit: %d initiators with %d states", len(initiators), len(initStates))
	}
	opts = opts.withDefaults()
	// Effective states: initiators override.
	eff := append([]sgraph.State(nil), states...)
	for i, v := range initiators {
		if v < 0 || v >= g.NumNodes() {
			return 0, fmt.Errorf("isomit: initiator %d out of range", v)
		}
		if !initStates[i].Active() {
			return 0, fmt.Errorf("isomit: initiator state %v not concrete", initStates[i])
		}
		if v == u {
			if states[u] == sgraph.StateUnknown || states[u] == initStates[i] {
				return 1, nil
			}
			return 0, nil
		}
		eff[v] = initStates[i]
	}
	if !eff[u].Active() {
		return 0, nil
	}
	// DFS backwards over in-edges from u, accumulating path factors; a
	// path terminates successfully when it reaches an initiator.
	isInit := make(map[int]bool, len(initiators))
	for _, v := range initiators {
		isInit[v] = true
	}
	failProb := 1.0
	paths := 0
	onPath := make([]bool, g.NumNodes())
	var dfs func(v int, prod float64, depth int)
	dfs = func(v int, prod float64, depth int) {
		if paths >= opts.MaxPaths {
			return
		}
		if isInit[v] {
			failProb *= 1 - prod
			paths++
			return
		}
		if depth == opts.MaxLen {
			return
		}
		onPath[v] = true
		g.In(v, func(e sgraph.Edge) {
			x := e.From
			if onPath[x] {
				return
			}
			f := G(eff[x], e.Sign, eff[v], e.Weight, opts.Alpha)
			if f == 0 {
				return
			}
			dfs(x, prod*f, depth+1)
		})
		onPath[v] = false
	}
	dfs(u, 1, 0)
	return 1 - failProb, nil
}

// NetworkLogLikelihood computes log P(G_I | I, S) = Σ log P(u, s(u)|I,S)
// over all infected (active or unknown-state) nodes. Nodes with probability
// zero make the whole snapshot impossible; they contribute math.Inf(-1).
func NetworkLogLikelihood(g *sgraph.Graph, states []sgraph.State, initiators []int, initStates []sgraph.State, opts PathOpts) (float64, error) {
	total := 0.0
	for u, s := range states {
		if !s.Active() && s != sgraph.StateUnknown {
			continue
		}
		p, err := NodeProbability(g, states, initiators, initStates, u, opts)
		if err != nil {
			return 0, err
		}
		if p == 0 {
			total = math.Inf(-1)
			continue
		}
		total += math.Log(p)
	}
	return total, nil
}
