package isomit

import (
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// defaultLambda is the log-likelihood normalizer of the local objective:
// −ln of the default sign-inconsistent link floor (1e-12), so that β = 1
// corresponds exactly to the least likely representable activation link.
var defaultLambda = -math.Log(1e-12)

// solveLocal optimizes the Markov (one-hop conditional) log-likelihood form
// of the per-tree objective. Each non-initiator node contributes the log of
// the MFC activation probability of its own in-edge given its parent is
// active — the paper's P(u, s(u)|I, S) for a length-one path — and each
// initiator pays the penalty β·Λ, with Λ = −log(InconsistentFloor)
// normalizing β to the paper's [0, 1] axis:
//
//	objective = −Σ_v log score(v) + (k−1)·β·Λ
//
// The objective decomposes per node, so the exact optimum is a threshold
// rule: besides the root, cut precisely the nodes whose in-edge score falls
// below e^(−β·Λ). β therefore sweeps the full behavioral range on [0, 1]:
// β = 0 shatters every tree into single nodes, β = 1 keeps extracted trees
// whole except links at or below the inconsistency floor — matching the
// paper's description of the parameter and its Figures 5–6 sweep.
//
// Compared to solvePenalized (the literal path-product partition
// objective), the local form is scale-free in tree depth: a long chain of
// individually plausible activations is never cut just because the
// compound product from the root decays. The two are compared by an
// ablation bench.
//
// The result is built from the threshold pass alone: it visits nodes in
// ascending order, so the initiators come out sorted and the score sums
// the kept nodes' logs in the order localLogScore does.
func solveLocal(t *cascade.Tree, beta, lambda float64) (*Result, error) {
	if beta < 0 {
		return nil, fmt.Errorf("isomit: beta must be non-negative, got %g", beta)
	}
	if lambda == 0 {
		lambda = defaultLambda
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("isomit: lambda must be positive, got %g", lambda)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("isomit: empty tree")
	}
	threshold := math.Exp(-beta * lambda)
	local := []int{0}
	score := 0.0
	for v := 1; v < t.Len(); v++ {
		switch {
		case t.Dummy[v]:
		case t.Score[v] < threshold:
			local = append(local, v)
		default:
			score += math.Log(t.Score[v])
		}
	}
	r := &Result{
		Local:      local,
		Initiators: make([]int, len(local)),
		States:     make([]sgraph.State, len(local)),
		K:          len(local),
		Score:      score,
		Objective:  -score + float64(len(local)-1)*beta*lambda,
		Cells:      int64(t.Len()), // one threshold check per node
	}
	for i, v := range local {
		r.Initiators[i] = t.Orig[v]
		r.States[i] = t.State[v]
	}
	return r, nil
}
