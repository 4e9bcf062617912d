package isomit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// fuzzBytes hands out the fuzz input one byte at a time and zeros once it
// runs out, so every input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// maxFuzzNodes bounds the decoded network, and with it every extracted
// tree, so the brute-force oracles stay cheap per input.
const maxFuzzNodes = 12

// fuzzInstance decodes a signed tree network the way testTree builds one:
// node v > 0 hangs off a parent below it through a link of chosen sign and
// weight, and its observed state is the parent's state propagated through
// the link sign, flipped (an inconsistency) or unknown. It returns the
// cascade trees extraction builds from that snapshot and a penalty β in
// [0, 1.275].
func fuzzInstance(data []byte) ([]*cascade.Tree, float64, error) {
	b := fuzzBytes(data)
	n := 1 + int(b.next())%maxFuzzNodes
	alpha := float64(1 + b.next()%4)
	beta := float64(b.next()) / 200
	truth := make([]sgraph.State, n)
	observed := make([]sgraph.State, n)
	truth[0] = sgraph.StatePositive
	switch b.next() % 4 {
	case 1:
		truth[0] = sgraph.StateNegative
	}
	observed[0] = truth[0]
	if b.next()%8 == 7 {
		observed[0] = sgraph.StateUnknown
	}
	gb := sgraph.NewBuilder(n)
	for v := 1; v < n; v++ {
		parent := int(b.next()) % v
		sign := sgraph.Positive
		if b.next()%10 >= 7 {
			sign = sgraph.Negative
		}
		weight := (float64(b.next()) + 1) / 256
		gb.AddEdge(parent, v, sign, weight)
		truth[v] = sgraph.StateOf(truth[parent], sign)
		observed[v] = truth[v]
		switch b.next() % 8 {
		case 5: // inject an inconsistency
			truth[v] = sgraph.StateOf(truth[v], sgraph.Negative)
			observed[v] = truth[v]
		case 6, 7:
			observed[v] = sgraph.StateUnknown
		}
	}
	g, err := gb.Build()
	if err != nil {
		return nil, 0, err
	}
	snap, err := cascade.NewSnapshot(g, observed)
	if err != nil {
		return nil, 0, err
	}
	forest, err := cascade.Extract(snap, cascade.Config{Alpha: alpha, Parallelism: 1})
	if err != nil {
		return nil, 0, err
	}
	return forest.Trees, beta, nil
}

// checkTreeSolvers holds every tree DP to its brute-force oracle on one
// tree, with the tolerances of the *MatchesBruteForce tests: the penalized
// DP and the local threshold rule on the tree and its binarized form, and
// both budget DPs on the binarized form for every feasible k.
func checkTreeSolvers(tr *cascade.Tree, beta float64) error {
	bin := tr.Binarize()
	for _, form := range []struct {
		name string
		t    *cascade.Tree
	}{{"tree", tr}, {"binarized", bin}} {
		pen, err := Solve(form.t, Options{Mode: ModePenalized, Beta: beta})
		if err != nil {
			return fmt.Errorf("%s: penalized: %v", form.name, err)
		}
		bf, err := BruteForce(form.t, beta)
		if err != nil {
			return fmt.Errorf("%s: BruteForce: %v", form.name, err)
		}
		if math.Abs(pen.Objective-bf.Objective) >= 1e-9 {
			return fmt.Errorf("%s: penalized objective %v (initiators %v), BruteForce %v (initiators %v)",
				form.name, pen.Objective, pen.Local, bf.Objective, bf.Local)
		}
		local, err := Solve(form.t, Options{Mode: ModeLocal, Beta: beta})
		if err != nil {
			return fmt.Errorf("%s: local: %v", form.name, err)
		}
		if want := bruteLocal(form.t, beta*defaultLambda); math.Abs(local.Objective-want) >= 1e-6 {
			return fmt.Errorf("%s: local objective %v (initiators %v), brute force %v",
				form.name, local.Objective, local.Local, want)
		}
		if s := localLogScore(form.t, local.Local); local.Score != s {
			return fmt.Errorf("%s: local score %v, localLogScore of its initiators %v", form.name, local.Score, s)
		}
	}
	for k := 1; k <= bin.NumReal(); k++ {
		for _, c := range []struct {
			mode  Mode
			brute func(*cascade.Tree, int) (*Result, error)
		}{{ModeBudget, BruteForceBudget}, {ModeBudgetStates, BruteForceBudgetStates}} {
			dp, err := Solve(bin, Options{Mode: c.mode, K: k})
			if err != nil {
				return fmt.Errorf("%s k=%d: %v", c.mode, k, err)
			}
			bf, err := c.brute(bin, k)
			if err != nil {
				return fmt.Errorf("%s k=%d: brute force: %v", c.mode, k, err)
			}
			if dp.K != k || math.Abs(dp.Score-bf.Score) >= 1e-9 {
				return fmt.Errorf("%s k=%d: DP score %v with K=%d (initiators %v), brute force %v (initiators %v)",
					c.mode, k, dp.Score, dp.K, dp.Local, bf.Score, bf.Local)
			}
		}
	}
	return nil
}

// FuzzTreeSolvers drives checkTreeSolvers over fuzzer-built trees of at
// most maxFuzzNodes real nodes, unknown observations included.
func FuzzTreeSolvers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// A full-size star: one root with every other node a direct child.
	star := []byte{maxFuzzNodes - 1, 2, 100, 0, 0}
	for v := 1; v < maxFuzzNodes; v++ {
		star = append(star, 0, byte(v), byte(37*v), byte(v))
	}
	f.Add(star)
	rng := xrand.New(27)
	for i := 0; i < 4; i++ {
		seed := make([]byte, 5+4*(maxFuzzNodes-1))
		for j := range seed {
			seed[j] = byte(rng.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trees, beta, err := fuzzInstance(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range trees {
			if err := checkTreeSolvers(tr, beta); err != nil {
				t.Fatalf("tree %d of %d (β=%v): %v", i, len(trees), beta, err)
			}
		}
	})
}
