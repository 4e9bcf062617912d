package diffusion

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// The tests in this file tie the MFC simulator (Algorithm 1) to the link
// probability the detector scores with (sgraph.LinkProbability): on tiny
// hand-built graphs every outcome has a closed-form probability, and its
// frequency over mcRuns seeded runs must lie within mcSigmas binomial
// standard deviations, sqrt(N·p·(1−p)), of it. A correct simulator misses
// one such check with probability about 7e-6; the seeds are fixed, so the
// tests are deterministic. Outcomes with p ∈ {0, 1} must match exactly.
const (
	mcRuns   = 20000
	mcSigmas = 4.5
)

// checkFrequency fails t when count of mcRuns runs is further than
// mcSigmas binomial σ from the expected count mcRuns·p.
func checkFrequency(t *testing.T, what string, count int, p float64) {
	t.Helper()
	mean := mcRuns * p
	tol := mcSigmas * math.Sqrt(mcRuns*p*(1-p))
	if math.Abs(float64(count)-mean) > tol {
		t.Errorf("%s: %d of %d runs, want %.1f ± %.1f (p = %g, %g σ)", what, count, mcRuns, mean, tol, p, mcSigmas)
	}
}

// TestMFCLinkFrequency runs one link of each sign from a +1 seed: the
// target activates with the link probability (min(1, αw) on a positive
// link, w on a negative one) and always ends in state s(seed)·s(link).
func TestMFCLinkFrequency(t *testing.T) {
	const alpha = 3
	for _, tt := range []struct {
		sign sgraph.Sign
		w    float64
		p    float64 // closed form
	}{
		{sgraph.Positive, 0.2, 0.6}, // 3·0.2
		{sgraph.Positive, 0.5, 1},   // 3·0.5 capped at 1
		{sgraph.Negative, 0.35, 0.35},
	} {
		name := fmt.Sprintf("%v link w=%g", tt.sign, tt.w)
		if got := sgraph.LinkProbability(tt.sign, tt.w, alpha); math.Abs(got-tt.p) > 1e-12 {
			t.Fatalf("%s: LinkProbability = %g, want %g", name, got, tt.p)
		}
		b := sgraph.NewBuilder(2)
		b.AddEdge(0, 1, tt.sign, tt.w)
		g := b.MustBuild()
		want := sgraph.StateOf(sgraph.StatePositive, tt.sign)
		rng := xrand.New(7)
		active := 0
		for i := 0; i < mcRuns; i++ {
			c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: alpha}, rng)
			if err != nil {
				t.Fatal(err)
			}
			switch c.States[1] {
			case sgraph.StateInactive:
			case want:
				active++
			default:
				t.Fatalf("%s: target ended %v, want %v", name, c.States[1], want)
			}
		}
		checkFrequency(t, name, active, tt.p)
	}
}

// TestMFCPathFrequency runs a signed path 0→1→2→3→4 from a +1 seed. Each
// node has one in-link, so nothing flips: the cascade stops at node k
// with probability p₁⋯p_k·(1−p_{k+1}) (the path product, times the next
// link's failure), and every reached node ends in the product of the link
// signs along its prefix.
func TestMFCPathFrequency(t *testing.T) {
	const alpha = 2
	signs := []sgraph.Sign{sgraph.Positive, sgraph.Negative, sgraph.Positive, sgraph.Negative}
	weights := []float64{0.25, 0.6, 0.3, 0.7}
	p := []float64{0.5, 0.6, 0.6, 0.7} // min(1, 2w) on +, w on −
	b := sgraph.NewBuilder(len(signs) + 1)
	for i, s := range signs {
		b.AddEdge(i, i+1, s, weights[i])
	}
	g := b.MustBuild()
	wantState := []sgraph.State{sgraph.StatePositive}
	for i, s := range signs {
		if got := sgraph.LinkProbability(s, weights[i], alpha); math.Abs(got-p[i]) > 1e-12 {
			t.Fatalf("link %d: LinkProbability = %g, want %g", i, got, p[i])
		}
		wantState = append(wantState, sgraph.StateOf(wantState[i], s))
	}

	rng := xrand.New(11)
	stops := make([]int, len(signs)+1) // stops[k]: runs whose last reached node is k
	for i := 0; i < mcRuns; i++ {
		c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: alpha}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Flips != 0 {
			t.Fatalf("run %d: %d flips on a path", i, c.Flips)
		}
		last := 0
		for v := 1; v < len(c.States) && c.States[v].Active(); v++ {
			last = v
		}
		for v, s := range c.States {
			want := sgraph.StateInactive
			if v <= last {
				want = wantState[v]
			}
			if s != want {
				t.Fatalf("run %d: node %d ended %v, want %v (stop at node %d)", i, v, s, want, last)
			}
		}
		stops[last]++
	}
	prefix := 1.0
	for k, count := range stops {
		want := prefix
		if k < len(p) {
			want *= 1 - p[k]
			prefix *= p[k]
		}
		checkFrequency(t, fmt.Sprintf("stop at node %d", k), count, want)
	}
}

// TestMFCFlipFrequency seeds 0 (+1) and 1 (−1), both with a positive link
// into node 2. A round's attempts run in initiator order, so 0 tries
// first (p₀ = 2·0.2) and 1 then tries whether 2 is inactive or was just
// set to +1 (the flip rule; p₁ = 2·0.15). Closed forms: 2 ends −1 via 1
// with p₁, +1 via 0 with p₀(1−p₁), inactive with (1−p₀)(1−p₁), and flips
// with p₀p₁.
func TestMFCFlipFrequency(t *testing.T) {
	const alpha = 2
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 2, sgraph.Positive, 0.2)
	b.AddEdge(1, 2, sgraph.Positive, 0.15)
	g := b.MustBuild()
	p0, p1 := 0.4, 0.3
	seeds := []int{0, 1}
	states := []sgraph.State{sgraph.StatePositive, sgraph.StateNegative}
	rng := xrand.New(13)
	var byOne, byZero, inactive, flips int
	for i := 0; i < mcRuns; i++ {
		c, err := MFC(g, seeds, states, MFCConfig{Alpha: alpha}, rng)
		if err != nil {
			t.Fatal(err)
		}
		switch link, s := c.ActivatedBy[2], c.States[2]; {
		case link == 1 && s == sgraph.StateNegative:
			byOne++
		case link == 0 && s == sgraph.StatePositive:
			byZero++
		case link == -1 && s == sgraph.StateInactive:
			inactive++
		default:
			t.Fatalf("run %d: node 2 ended %v via %d", i, s, link)
		}
		flips += c.Flips
	}
	checkFrequency(t, "−1 via node 1", byOne, p1)
	checkFrequency(t, "+1 via node 0", byZero, p0*(1-p1))
	checkFrequency(t, "inactive", inactive, (1-p0)*(1-p1))
	checkFrequency(t, "flipped", flips, p0*p1)
}
