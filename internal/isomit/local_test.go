package isomit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cascade"
	"repro/internal/xrand"
)

// localLogScore evaluates the Markov log objective for an explicit
// initiator set — the brute-force reference for ModeLocal: initiators
// contribute 0 (their own activation is assumed), other real nodes
// contribute log of their in-edge score, and a real non-initiator root
// (possible in hand-built sets) contributes the log of an impossible
// activation, -Inf; dummies contribute nothing.
func localLogScore(t *cascade.Tree, initiators []int) float64 {
	isInit := make([]bool, t.Len())
	for _, v := range initiators {
		isInit[v] = true
	}
	total := 0.0
	for v := 0; v < t.Len(); v++ {
		if t.Dummy[v] || isInit[v] {
			continue
		}
		if v == 0 {
			return math.Inf(-1) // ungoverned root: impossible snapshot
		}
		total += math.Log(t.Score[v])
	}
	return total
}

// bruteLocal returns the least −localLogScore + (k−1)·penalty over every
// initiator set of real nodes that contains the root.
func bruteLocal(t *cascade.Tree, penalty float64) float64 {
	real := realNodes(t)
	best := math.Inf(1)
	for mask := 1; mask < 1<<len(real); mask++ {
		if mask&1 == 0 {
			continue // root (index 0 in real) must be an initiator
		}
		set := setOf(real, mask)
		if obj := -localLogScore(t, set) + float64(len(set)-1)*penalty; obj < best {
			best = obj
		}
	}
	return best
}

func TestSolveLocalPath(t *testing.T) {
	tr := pathTree(t, 0.1, 0.9)
	// Λ default: cut node iff in-edge score < e^(−βΛ). β=0: everything
	// below 1 is cut.
	r, err := Solve(tr, Options{Mode: ModeLocal, Beta: 0, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("β=0: K = %d, want 3 (shattered)", r.K)
	}
	// β=1: threshold e^(-Λ) ≈ 1e-12; nothing cut.
	r, err = Solve(tr, Options{Mode: ModeLocal, Beta: 1, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Local[0] != 0 {
		t.Errorf("β=1: initiators = %v, want [0]", r.Local)
	}
	// Intermediate: cut only the weak 0.1 edge.
	beta := -math.Log(0.3) / defaultLambda
	r, err = Solve(tr, Options{Mode: ModeLocal, Beta: beta, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 2 || r.Local[1] != 1 {
		t.Errorf("mid β: initiators = %v, want [0 1]", r.Local)
	}
}

func TestSolveLocalMatchesBruteForce(t *testing.T) {
	// The threshold rule must minimize −localLogScore + (k−1)·β·λ over
	// every root-containing subset.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(8)
		beta := rng.Range(0, 1)
		tr := testTree(t, seed, n)
		got, err := Solve(tr, Options{Mode: ModeLocal, Beta: beta, Lambda: 0})
		if err != nil {
			return false
		}
		return math.Abs(got.Objective-bruteLocal(tr, beta*defaultLambda)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSolveLocalMonotoneInBeta(t *testing.T) {
	tr := testTree(t, 123, 60)
	prevK := math.MaxInt32
	for _, beta := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
		r, err := Solve(tr, Options{Mode: ModeLocal, Beta: beta, Lambda: 0})
		if err != nil {
			t.Fatal(err)
		}
		if r.K > prevK {
			t.Errorf("β=%g increased K to %d", beta, r.K)
		}
		prevK = r.K
	}
}

func TestSolveLocalDummiesNeverInitiators(t *testing.T) {
	tr := testTree(t, 9, 25).Binarize()
	r, err := Solve(tr, Options{Mode: ModeLocal, Beta: 0, Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Local {
		if tr.Dummy[v] {
			t.Fatalf("dummy %d selected as initiator", v)
		}
	}
	// β=0 cuts every real node whose in-edge activation is not certain
	// (score < 1); probability-1 links survive even a zero penalty.
	want := 1 // the root
	for v := 1; v < tr.Len(); v++ {
		if !tr.Dummy[v] && tr.Score[v] < 1 {
			want++
		}
	}
	if r.K != want {
		t.Errorf("β=0 on binarized tree: K = %d, want %d", r.K, want)
	}
}

func TestSolveLocalValidation(t *testing.T) {
	tr := pathTree(t, 0.5, 0.5)
	if _, err := Solve(tr, Options{Mode: ModeLocal, Beta: -0.1, Lambda: 0}); err == nil {
		t.Error("negative beta should error")
	}
	if _, err := Solve(tr, Options{Mode: ModeLocal, Beta: 0.5, Lambda: -3}); err == nil {
		t.Error("negative lambda should error")
	}
}

func TestLocalLogScoreUngovernedRoot(t *testing.T) {
	tr := pathTree(t, 0.5, 0.5)
	if s := localLogScore(tr, []int{1}); !math.IsInf(s, -1) {
		t.Errorf("score without root = %g, want -Inf", s)
	}
}
