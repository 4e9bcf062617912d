package isomit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cascade"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

func TestGFunction(t *testing.T) {
	pos, neg := sgraph.StatePositive, sgraph.StateNegative
	tests := []struct {
		name string
		su   sgraph.State
		sign sgraph.Sign
		sv   sgraph.State
		w, a float64
		want float64
	}{
		{"consistent positive", pos, sgraph.Positive, pos, 0.25, 3, 0.75},
		{"consistent positive capped", pos, sgraph.Positive, pos, 0.5, 3, 1},
		{"consistent negative", pos, sgraph.Negative, neg, 0.25, 3, 0.25},
		{"consistent double negative", neg, sgraph.Negative, pos, 0.25, 3, 0.25},
		{"inconsistent", pos, sgraph.Positive, neg, 0.25, 3, 0},
		{"inactive source", sgraph.StateInactive, sgraph.Positive, pos, 0.25, 3, 0},
		{"unknown target", pos, sgraph.Positive, sgraph.StateUnknown, 0.25, 3, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := G(tt.su, tt.sign, tt.sv, tt.w, tt.a); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("G = %g, want %g", got, tt.want)
			}
		})
	}
}

func statesOf(ss ...sgraph.State) []sgraph.State { return ss }

func TestNodeProbabilityChain(t *testing.T) {
	// 0 -+(0.2)-> 1 --(0.4)-> 2, all states consistent from +1 seed.
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, 0.2)
	b.AddEdge(1, 2, sgraph.Negative, 0.4)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StateNegative)
	opts := PathOpts{Alpha: 3}
	p, err := NodeProbability(g, states, []int{0}, statesOf(sgraph.StatePositive), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 * 0.4 // boosted first hop, raw negative second hop
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("P = %g, want %g", p, want)
	}
	// Node 1: single hop.
	p, err = NodeProbability(g, states, []int{0}, statesOf(sgraph.StatePositive), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.6) > 1e-12 {
		t.Errorf("P(1) = %g, want 0.6", p)
	}
}

func TestNodeProbabilityNoisyOr(t *testing.T) {
	// Diamond: two disjoint paths 0->1->3 and 0->2->3.
	b := sgraph.NewBuilder(4)
	b.AddEdge(0, 1, sgraph.Positive, 0.1)
	b.AddEdge(0, 2, sgraph.Positive, 0.2)
	b.AddEdge(1, 3, sgraph.Positive, 0.1)
	b.AddEdge(2, 3, sgraph.Positive, 0.2)
	g := b.MustBuild()
	all := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive)
	p, err := NodeProbability(g, all, []int{0}, statesOf(sgraph.StatePositive), 3, PathOpts{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	p1 := 0.2 * 0.2 // boosted 0.1*2 each hop
	p2 := 0.4 * 0.4
	want := 1 - (1-p1)*(1-p2)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("P = %g, want %g", p, want)
	}
}

func TestNodeProbabilityInconsistentPathBlocked(t *testing.T) {
	// The only path has an inconsistent link: probability 0.
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.9)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StateNegative) // inconsistent
	p, err := NodeProbability(g, states, []int{0}, statesOf(sgraph.StatePositive), 1, PathOpts{Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("P = %g, want 0", p)
	}
}

func TestNodeProbabilityInitiatorBaseCase(t *testing.T) {
	g := sgraph.NewBuilder(1).MustBuild()
	// matching state
	p, err := NodeProbability(g, statesOf(sgraph.StatePositive), []int{0}, statesOf(sgraph.StatePositive), 0, PathOpts{})
	if err != nil || p != 1 {
		t.Errorf("match: P = %g err=%v, want 1", p, err)
	}
	// contradicting state
	p, err = NodeProbability(g, statesOf(sgraph.StateNegative), []int{0}, statesOf(sgraph.StatePositive), 0, PathOpts{})
	if err != nil || p != 0 {
		t.Errorf("mismatch: P = %g err=%v, want 0", p, err)
	}
	// unknown observation accepts any assumed state
	p, err = NodeProbability(g, statesOf(sgraph.StateUnknown), []int{0}, statesOf(sgraph.StateNegative), 0, PathOpts{})
	if err != nil || p != 1 {
		t.Errorf("unknown: P = %g err=%v, want 1", p, err)
	}
}

func TestNodeProbabilityValidation(t *testing.T) {
	g := sgraph.NewBuilder(2).MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive)
	if _, err := NodeProbability(g, states, []int{0}, nil, 1, PathOpts{}); err == nil {
		t.Error("mismatched initiator states should error")
	}
	if _, err := NodeProbability(g, states, []int{9}, statesOf(sgraph.StatePositive), 1, PathOpts{}); err == nil {
		t.Error("out-of-range initiator should error")
	}
	if _, err := NodeProbability(g, states, []int{0}, statesOf(sgraph.StateInactive), 1, PathOpts{}); err == nil {
		t.Error("inactive initiator state should error")
	}
}

func TestNetworkLogLikelihood(t *testing.T) {
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, 0.5)
	b.AddEdge(0, 2, sgraph.Positive, 0.25)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive)
	ll, err := NetworkLogLikelihood(g, states, []int{0}, statesOf(sgraph.StatePositive), PathOpts{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(1) + math.Log(1) + math.Log(0.5)
	if math.Abs(ll-want) > 1e-12 {
		t.Errorf("ll = %g, want %g", ll, want)
	}
	// An unreachable infected node makes the snapshot impossible.
	b2 := sgraph.NewBuilder(2)
	g2 := b2.MustBuild()
	ll, err = NetworkLogLikelihood(g2, statesOf(sgraph.StatePositive, sgraph.StatePositive), []int{0}, statesOf(sgraph.StatePositive), PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ll, -1) {
		t.Errorf("ll = %g, want -Inf", ll)
	}
}

// testTree extracts a cascade tree from a random signed tree graph whose
// states are propagated from the root with occasional inconsistencies and
// unknowns — realistic input for the DP solvers.
func testTree(tb testing.TB, seed uint64, n int) *cascade.Tree {
	tb.Helper()
	rng := xrand.New(seed)
	g, err := RandomTree(TreeConfig{
		Nodes: n, MaxChildren: 3, PositiveRatio: 0.7,
		WeightLow: 0.05, WeightHigh: 0.9,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	states := make([]sgraph.State, n)
	states[0] = sgraph.StatePositive
	if rng.Bool(0.5) {
		states[0] = sgraph.StateNegative
	}
	// BFS order of gen trees: node IDs increase from the root.
	for v := 1; v < n; v++ {
		g.In(v, func(e sgraph.Edge) {
			states[v] = sgraph.StateOf(states[e.From], e.Sign)
		})
		if rng.Bool(0.15) { // inject inconsistency
			if states[v] == sgraph.StatePositive {
				states[v] = sgraph.StateNegative
			} else {
				states[v] = sgraph.StatePositive
			}
		}
	}
	for v := 1; v < n; v++ {
		if rng.Bool(0.1) {
			states[v] = sgraph.StateUnknown
		}
	}
	snap, err := cascade.NewSnapshot(g, states)
	if err != nil {
		tb.Fatal(err)
	}
	forest, err := cascade.Extract(snap, cascade.Config{Alpha: 3})
	if err != nil {
		tb.Fatal(err)
	}
	if len(forest.Trees) != 1 {
		tb.Fatalf("expected 1 tree, got %d", len(forest.Trees))
	}
	return forest.Trees[0]
}

func TestPartitionScorePath(t *testing.T) {
	tr := pathTree(t, 0.1, 0.9)
	if got := partitionScore(tr, []int{0}); math.Abs(got-1.19) > 1e-12 {
		t.Errorf("score({0}) = %g, want 1.19", got)
	}
	if got := partitionScore(tr, []int{0, 1}); math.Abs(got-2.9) > 1e-12 {
		t.Errorf("score({0,1}) = %g, want 2.9", got)
	}
	if got := partitionScore(tr, []int{1}); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("score({1}) = %g, want 1.9 (ungoverned root contributes 0)", got)
	}
}

// pathTree builds a 3-node cascade tree 0 -> 1 -> 2 with the given edge
// scores, via a weighted positive chain.
func pathTree(t *testing.T, s1, s2 float64) *cascade.Tree {
	t.Helper()
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, s1)
	b.AddEdge(1, 2, sgraph.Positive, s2)
	g := b.MustBuild()
	all := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive)
	snap, err := cascade.NewSnapshot(g, all)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := cascade.Extract(snap, cascade.Config{Alpha: 1}) // no boost: scores = weights
	if err != nil {
		t.Fatal(err)
	}
	return forest.Trees[0]
}

func TestSolvePenalizedPath(t *testing.T) {
	tr := pathTree(t, 0.1, 0.9)
	r, err := Solve(tr, Options{Mode: ModePenalized, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Best is {0,1}: score 2.9, objective -2.9 + 0.5 = -2.4.
	if r.K != 2 || len(r.Local) != 2 || r.Local[0] != 0 || r.Local[1] != 1 {
		t.Errorf("initiators = %v, want [0 1]", r.Local)
	}
	if math.Abs(r.Objective-(-2.4)) > 1e-12 {
		t.Errorf("objective = %g, want -2.4", r.Objective)
	}
	// With a large beta a single initiator must be chosen, and the best
	// single initiator is node 1 (score 0 + 1 + 0.9 = 1.9, beating the
	// root's 1 + 0.1 + 0.09): the formulation permits leaving shallow
	// nodes unexplained when β outweighs them.
	r, err = Solve(tr, Options{Mode: ModePenalized, Beta: 1.8})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Local[0] != 1 {
		t.Errorf("large beta initiators = %v, want [1]", r.Local)
	}
}

// TestSolvePenalizedEveryCutUnprofitable pins the β > 1 case where no
// initiator pays for itself, so the empty set maximizes OPT − k·β. The
// required single initiator must be the best singleton, node 1 (score
// 1 + 0.9 = 1.9), not the root (1 + 0.1 + 0.09 = 1.19).
func TestSolvePenalizedEveryCutUnprofitable(t *testing.T) {
	tr := pathTree(t, 0.1, 0.9)
	r, err := Solve(tr, Options{Mode: ModePenalized, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Local[0] != 1 || math.Abs(r.Objective-(-1.9)) > 1e-12 {
		t.Errorf("initiators = %v, objective %g; want [1], -1.9", r.Local, r.Objective)
	}
}

func TestSolvePenalizedMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(10)
		beta := rng.Range(0, 1.2)
		tr := testTree(t, seed, n)
		dp, err := Solve(tr, Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			return false
		}
		bf, err := BruteForce(tr, beta)
		if err != nil {
			return false
		}
		return math.Abs(dp.Objective-bf.Objective) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSolveBudgetMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(9)
		tr := testTree(t, seed, n).Binarize()
		k := 1 + rng.Intn(tr.NumReal())
		dp, err := Solve(tr, Options{Mode: ModeBudget, K: k})
		if err != nil {
			return false
		}
		bf, err := BruteForceBudget(tr, k)
		if err != nil {
			return false
		}
		return math.Abs(dp.Score-bf.Score) < 1e-9 && dp.K == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPenalizedEqualsBudgetEnvelope(t *testing.T) {
	// The penalized optimum must equal min over k of −Budget(k)+(k−1)β.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(9)
		beta := rng.Range(0.01, 1)
		tr := testTree(t, seed, n)
		bin := tr.Binarize()
		pen, err := Solve(tr, Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			return false
		}
		best := math.Inf(1)
		for k := 1; k <= bin.NumReal(); k++ {
			r, err := Solve(bin, Options{Mode: ModeBudget, K: k})
			if err != nil {
				return false
			}
			if obj := -r.Score + float64(k-1)*beta; obj < best {
				best = obj
			}
		}
		return math.Abs(pen.Objective-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBinarizeInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(20)
		beta := rng.Range(0, 1)
		tr := testTree(t, seed, n)
		a, err := Solve(tr, Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			return false
		}
		b, err := Solve(tr.Binarize(), Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			return false
		}
		if math.Abs(a.Objective-b.Objective) > 1e-9 {
			return false
		}
		// Initiator original-ID sets must match.
		if len(a.Initiators) != len(b.Initiators) {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range a.Initiators {
			seen[v] = true
		}
		for _, v := range b.Initiators {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveAuto(t *testing.T) {
	tr := pathTree(t, 0.1, 0.9).Binarize()
	r, err := Solve(tr, Options{Mode: ModeAuto, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 2 {
		t.Errorf("auto K = %d, want 2", r.K)
	}
	if math.Abs(r.Objective-(-2.4)) > 1e-12 {
		t.Errorf("auto objective = %g, want -2.4", r.Objective)
	}
	// ModeAuto can never beat the exact penalized optimum.
	pen, err := Solve(tr, Options{Mode: ModePenalized, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Objective < pen.Objective-1e-9 {
		t.Errorf("auto objective %g below penalized optimum %g", r.Objective, pen.Objective)
	}
}

func TestSolvePenalizedBetaMonotonicity(t *testing.T) {
	// Higher beta must never increase the number of detected initiators.
	tr := testTree(t, 77, 40)
	prevK := math.MaxInt32
	for _, beta := range []float64{0, 0.1, 0.3, 0.5, 0.8, 1.0} {
		r, err := Solve(tr, Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		if r.K > prevK {
			t.Errorf("beta %g increased K to %d (prev %d)", beta, r.K, prevK)
		}
		prevK = r.K
	}
}

func TestSolvePenalizedValidation(t *testing.T) {
	tr := pathTree(t, 0.5, 0.5)
	if _, err := Solve(tr, Options{Mode: ModePenalized, Beta: -1}); err == nil {
		t.Error("negative beta should error")
	}
	if _, err := Solve(tr, Options{Mode: ModePenalized, Beta: 0, QMin: 2}); err == nil {
		t.Error("QMin >= 1 should error")
	}
}

func TestSolveBudgetValidation(t *testing.T) {
	tr := pathTree(t, 0.5, 0.5)
	if _, err := Solve(tr, Options{Mode: ModeBudget, K: 0}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Solve(tr, Options{Mode: ModeBudget, K: 99}); err == nil {
		t.Error("k>n should error")
	}
	wide := testTree(t, 5, 20)
	if wide.MaxFanout() > 2 {
		if _, err := Solve(wide, Options{Mode: ModeBudget, K: 1}); err == nil {
			t.Error("non-binary tree should error")
		}
	}
}

func TestBruteForceLimits(t *testing.T) {
	tr := testTree(t, 9, 30)
	if tr.NumReal() > 20 {
		if _, err := BruteForce(tr, 0.1); err == nil {
			t.Error("oversized brute force should error")
		}
	}
}

func TestSolvePenalizedDeepPathTruncation(t *testing.T) {
	// A deep path exercises the MaxAncestors cap; results with a tight
	// cap must stay close to the untruncated optimum because dropped
	// products are below QMin anyway for decaying scores.
	b := sgraph.NewBuilder(120)
	for i := 0; i+1 < 120; i++ {
		b.AddEdge(i, i+1, sgraph.Positive, 0.3)
	}
	g := b.MustBuild()
	states := make([]sgraph.State, 120)
	for i := range states {
		states[i] = sgraph.StatePositive
	}
	snap, err := cascade.NewSnapshot(g, states)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := cascade.Extract(snap, cascade.Config{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := forest.Trees[0]
	wide, err := Solve(tr, Options{Mode: ModePenalized, Beta: 0.2, MaxAncestors: 64})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Solve(tr, Options{Mode: ModePenalized, Beta: 0.2, MaxAncestors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wide.Objective-tight.Objective) > 1e-6 {
		t.Errorf("truncation changed objective: %g vs %g", wide.Objective, tight.Objective)
	}
}
