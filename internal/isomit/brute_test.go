package isomit

import (
	"fmt"
	"math"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// BruteForce enumerates every non-empty initiator set over the tree's real
// nodes and returns the one minimizing −OPT + (k−1)·β. Exponential — use
// only on tiny trees; it exists to verify the dynamic programs.
func BruteForce(t *cascade.Tree, beta float64) (*Result, error) {
	real := realNodes(t)
	if len(real) > 20 {
		return nil, fmt.Errorf("isomit: BruteForce limited to 20 real nodes, got %d", len(real))
	}
	if len(real) == 0 {
		return nil, fmt.Errorf("isomit: tree has no real nodes")
	}
	bestObj := math.Inf(1)
	var bestSet []int
	for mask := 1; mask < 1<<len(real); mask++ {
		set := setOf(real, mask)
		obj := -partitionScore(t, set) + float64(len(set)-1)*beta
		if obj < bestObj {
			bestObj = obj
			bestSet = set
		}
	}
	return buildResult(t, bestSet, beta), nil
}

// BruteForceBudget enumerates every initiator set of exactly k real nodes
// and returns the best partition score.
func BruteForceBudget(t *cascade.Tree, k int) (*Result, error) {
	real := realNodes(t)
	if len(real) > 20 {
		return nil, fmt.Errorf("isomit: BruteForceBudget limited to 20 real nodes, got %d", len(real))
	}
	if k < 1 || k > len(real) {
		return nil, fmt.Errorf("isomit: k=%d infeasible with %d real nodes", k, len(real))
	}
	bestScore := math.Inf(-1)
	var bestSet []int
	for mask := 1; mask < 1<<len(real); mask++ {
		if popcount(mask) != k {
			continue
		}
		set := setOf(real, mask)
		if s := partitionScore(t, set); s > bestScore {
			bestScore = s
			bestSet = set
		}
	}
	r := buildResult(t, bestSet, 0)
	r.Objective = -r.Score
	return r, nil
}

// partitionScoreStates evaluates OPT for the initiator set isInit, where
// isFlipped marks initiators assuming the opposite of their imputed state:
// such an initiator scores the paper's base case (1 only when its
// observation is unknown) and its out-edges are re-scored under the
// flipped state. q is per-node scratch of length t.Len().
func partitionScoreStates(t *cascade.Tree, isInit, isFlipped []bool, q []float64) float64 {
	total := 0.0
	for v := 0; v < t.Len(); v++ { // BFS order: parents first
		switch {
		case isInit[v]:
			q[v] = 1
			if !isFlipped[v] || t.Observed[v] == sgraph.StateUnknown {
				total++
			}
			continue
		case v == 0:
			q[v] = 0
		default:
			p := t.Parent[v]
			hop := t.Score[v]
			if isInit[p] && isFlipped[p] {
				hop = t.FlipScore(v, t.State[p])
			}
			q[v] = q[p] * hop
		}
		if !t.Dummy[v] {
			total += q[v]
		}
	}
	return total
}

// BruteForceBudgetStates enumerates every k-subset of real nodes AND every
// imputed/flipped state assignment, returning the best partition score —
// the ground truth for Solve in ModeBudgetStates.
func BruteForceBudgetStates(t *cascade.Tree, k int) (*Result, error) {
	real := realNodes(t)
	if len(real) > 16 {
		return nil, fmt.Errorf("isomit: BruteForceBudgetStates limited to 16 real nodes, got %d", len(real))
	}
	if k < 1 || k > len(real) {
		return nil, fmt.Errorf("isomit: k=%d infeasible with %d real nodes", k, len(real))
	}
	bestScore := math.Inf(-1)
	var bestSet []int
	var bestFlips int
	isInit := make([]bool, t.Len())
	isFlipped := make([]bool, t.Len())
	q := make([]float64, t.Len())
	for mask := 1; mask < 1<<len(real); mask++ {
		if popcount(mask) != k {
			continue
		}
		set := setOf(real, mask)
		for _, v := range set {
			isInit[v] = true
		}
		for fm := 0; fm < 1<<k; fm++ {
			for i, v := range set {
				isFlipped[v] = fm&(1<<i) != 0
			}
			if s := partitionScoreStates(t, isInit, isFlipped, q); s > bestScore {
				bestScore, bestSet, bestFlips = s, set, fm
			}
		}
		for _, v := range set {
			isInit[v], isFlipped[v] = false, false
		}
	}
	res := &Result{Local: bestSet, K: k, Score: bestScore, Objective: -bestScore}
	for i, v := range bestSet {
		res.Initiators = append(res.Initiators, t.Orig[v])
		st := t.State[v]
		if bestFlips&(1<<i) != 0 {
			if st == sgraph.StatePositive {
				st = sgraph.StateNegative
			} else {
				st = sgraph.StatePositive
			}
		}
		res.States = append(res.States, st)
	}
	return res, nil
}

func realNodes(t *cascade.Tree) []int {
	var out []int
	for v := 0; v < t.Len(); v++ {
		if !t.Dummy[v] {
			out = append(out, v)
		}
	}
	return out
}

func setOf(real []int, mask int) []int {
	var set []int
	for i, v := range real {
		if mask&(1<<i) != 0 {
			set = append(set, v)
		}
	}
	return set
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
