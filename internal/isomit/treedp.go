package isomit

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// Result is one tree's inferred rumor initiators.
type Result struct {
	// Local holds initiator IDs local to the tree, ascending; Initiators
	// holds the corresponding original diffusion-network IDs; States their
	// inferred initial states.
	Local      []int
	Initiators []int
	States     []sgraph.State
	// K is the number of initiators, Score the partition value
	// OPT = Σ_v P(v | nearest governing initiator), and Objective the
	// paper's minimized quantity −OPT + (K−1)·β.
	K         int
	Score     float64
	Objective float64
	// Cells counts the DP cells this solve evaluated (memo entries for the
	// budget DPs, ancestor slots for the penalized DP, threshold checks
	// for the local objective) — the per-tree work measure surfaced by the
	// observability layer as the dp_cells counter.
	Cells int64
	// KTried is how many budget values the incremental k-selection loop
	// evaluated before stopping (auto modes only; zero otherwise).
	KTried int
}

// PenaltyConfig parameterizes the penalized DP (ModePenalized).
type PenaltyConfig struct {
	// Beta is the per-extra-initiator penalty β of Section III-E3; must
	// be non-negative.
	Beta float64
	// QMin is the smallest governing path product kept exact; smaller
	// products are treated as zero. Zero defaults to 1e-12.
	QMin float64
	// MaxAncestors caps how many live governing ancestors are tracked per
	// node; deeper candidates are treated as zero-product. Zero defaults
	// to 64, far beyond the decay horizon of real weights.
	MaxAncestors int
}

func (c PenaltyConfig) withDefaults() PenaltyConfig {
	if c.QMin == 0 {
		c.QMin = 1e-12
	}
	if c.MaxAncestors == 0 {
		c.MaxAncestors = 64
	}
	return c
}

func (c PenaltyConfig) validate() error {
	if c.Beta < 0 {
		return fmt.Errorf("isomit: Beta must be non-negative, got %g", c.Beta)
	}
	if c.QMin <= 0 || c.QMin >= 1 {
		return fmt.Errorf("isomit: QMin must be in (0,1), got %g", c.QMin)
	}
	if c.MaxAncestors < 1 {
		return fmt.Errorf("isomit: MaxAncestors must be positive, got %d", c.MaxAncestors)
	}
	return nil
}

// negInf is the score of an infeasible option.
var negInf = math.Inf(-1)

// solvePenalized finds the initiator set minimizing the paper's final
// objective −OPT + (k−1)·β over ALL k simultaneously, by exact dynamic
// programming on the cascade tree. Semantics follow Section III-E3's
// partition reading: each initiator governs the maximal subtree below it
// not claimed by a deeper initiator, a governed node contributes its
// root-to-node path product of g scores, and ungoverned nodes contribute 0.
// Dummy nodes (from Binarize) contribute nothing and cannot be initiators,
// so running on a binarized tree gives identical results.
//
// The DP tracks, per node, the value of being governed by each live
// ancestor (path product above QMin), one merged "zero product" slot, and
// the self (initiator) slot, paying β at each cut. This optimizes the
// Lagrangian form of the budgeted DP exactly, in O(n · min(depth,
// MaxAncestors)) time.
func solvePenalized(t *cascade.Tree, cfg PenaltyConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := t.Len()
	if n == 0 {
		return nil, fmt.Errorf("isomit: empty tree")
	}

	// Downward pass: live governing products per node.
	qlive := make([][]float64, n)
	drop := make([]int, n) // conceptual prefix entries merged into the zero slot
	qlive[0] = nil
	for v := 1; v < n; v++ {
		p := t.Parent[v]
		s := t.Score[v]
		ext := make([]float64, 0, len(qlive[p])+1)
		for _, q := range qlive[p] {
			ext = append(ext, q*s)
		}
		ext = append(ext, s)
		// Drop the (smallest-product) prefix below QMin or over the cap.
		d := 0
		for d < len(ext) && ext[d] < cfg.QMin {
			d++
		}
		if keep := len(ext) - d; keep > cfg.MaxAncestors {
			d = len(ext) - cfg.MaxAncestors
		}
		drop[v] = d
		qlive[v] = ext[d:]
	}

	// Upward pass (reverse BFS order: children before parents).
	type nodeRes struct {
		dead float64   // governed by a zero-product source
		live []float64 // governed by live ancestor i (aligned with qlive)
		self float64   // node is an initiator; includes the -β payment
	}
	res := make([]nodeRes, n)
	var cells int64
	for v := n - 1; v >= 0; v-- {
		l := len(qlive[v])
		cells += int64(l) + 2 // live slots + dead + self
		r := nodeRes{live: make([]float64, l)}
		if t.Dummy[v] {
			r.self = negInf
		} else {
			r.self = 1 - cfg.Beta
			for i := 0; i < l; i++ {
				r.live[i] = qlive[v][i]
			}
		}
		for _, c32 := range t.Children[v] {
			c := int(c32)
			cr := &res[c]
			cut := cr.self
			// child's conceptual index for parent slot i is i; for the
			// parent-self slot it is l.
			childVal := func(concept int) float64 {
				if concept < drop[c] {
					return cr.dead
				}
				return cr.live[concept-drop[c]]
			}
			r.dead += math.Max(cr.dead, cut)
			for i := 0; i < l; i++ {
				r.live[i] += math.Max(childVal(i), cut)
			}
			if r.self != negInf {
				r.self += math.Max(childVal(l), cut)
			}
		}
		res[v] = r
	}

	// Reconstruction: walk down re-deriving the argmax decisions.
	const (
		slotDead = -2
		slotSelf = -1
	)
	slot := make([]int, n)
	root := &res[0]
	if root.self >= root.dead {
		slot[0] = slotSelf
	} else {
		slot[0] = slotDead
	}
	var initiators []int
	if slot[0] == slotSelf {
		initiators = append(initiators, 0)
	}
	for v := 0; v < n; v++ {
		l := len(qlive[v])
		for _, c32 := range t.Children[v] {
			c := int(c32)
			cr := &res[c]
			var concept int
			switch slot[v] {
			case slotDead:
				concept = -1 // dead propagates
			case slotSelf:
				concept = l
			default:
				concept = slot[v]
			}
			through := cr.dead
			childSlot := slotDead
			if concept >= 0 && concept >= drop[c] {
				childSlot = concept - drop[c]
				through = cr.live[childSlot]
			}
			if cr.self > through {
				slot[c] = slotSelf
				initiators = append(initiators, c)
			} else {
				slot[c] = childSlot
			}
		}
	}
	if len(initiators) == 0 {
		// Degenerate (possible only when β > 1 makes every cut
		// unprofitable), but the problem still requires an initiator.
		initiators = append(initiators, bestSingleInitiator(t))
	}
	r := buildResult(t, initiators, cfg.Beta)
	r.Cells = cells
	return r, nil
}

// bestSingleInitiator returns the real node whose singleton initiator set
// has the largest partition score: the sum over the real nodes of its
// subtree of the path product from it. When the empty set maximizes
// OPT − k·β, this singleton is the best non-empty set. Adding an
// initiator u to any set gains at most OPT({u}) − β, which the empty
// set's optimality bounds by zero, so no second initiator can help.
func bestSingleInitiator(t *cascade.Tree) int {
	explained := make([]float64, t.Len())
	best := 0
	for v := t.Len() - 1; v >= 0; v-- { // reverse BFS order: children first
		if !t.Dummy[v] {
			explained[v] = 1
		}
		for _, c := range t.Children[v] {
			explained[v] += t.Score[c] * explained[c]
		}
		if !t.Dummy[v] && explained[v] >= explained[best] {
			best = v
		}
	}
	return best
}

// buildResult assembles a Result from a set of local initiator IDs,
// recomputing the partition score directly (which also serves as an
// internal cross-check of the DP reconstruction).
func buildResult(t *cascade.Tree, local []int, beta float64) *Result {
	sort.Ints(local)
	r := &Result{Local: local, K: len(local), Score: partitionScore(t, local)}
	r.Objective = -r.Score + float64(r.K-1)*beta
	for _, v := range local {
		r.Initiators = append(r.Initiators, t.Orig[v])
		r.States = append(r.States, t.State[v])
	}
	return r
}

// partitionScore evaluates OPT for an explicit initiator set under the
// partition semantics: every node contributes the product of g scores on
// the path from its nearest initiator ancestor (1 for initiators
// themselves, 0 for nodes with no initiator above them); dummy nodes
// contribute nothing.
func partitionScore(t *cascade.Tree, initiators []int) float64 {
	isInit := make([]bool, t.Len())
	for _, v := range initiators {
		isInit[v] = true
	}
	q := make([]float64, t.Len())
	total := 0.0
	for v := 0; v < t.Len(); v++ { // BFS order: parents first
		switch {
		case isInit[v]:
			q[v] = 1
		case v == 0:
			q[v] = 0
		default:
			q[v] = q[t.Parent[v]] * t.Score[v]
		}
		if !t.Dummy[v] {
			total += q[v]
		}
	}
	return total
}
