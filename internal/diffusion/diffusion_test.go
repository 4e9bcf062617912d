package diffusion

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// line builds a diffusion path 0 -> 1 -> ... with the given signs, all
// weights 1 so propagation is deterministic.
func line(t *testing.T, signs ...sgraph.Sign) *sgraph.Graph {
	t.Helper()
	b := sgraph.NewBuilder(len(signs) + 1)
	for i, s := range signs {
		b.AddEdge(i, i+1, s, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pos(t *testing.T) []sgraph.State { t.Helper(); return []sgraph.State{sgraph.StatePositive} }

func TestMFCDeterministicLine(t *testing.T) {
	// + - + line: states should be +1, +1, -1, -1.
	g := line(t, sgraph.Positive, sgraph.Negative, sgraph.Positive)
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []sgraph.State{sgraph.StatePositive, sgraph.StatePositive, sgraph.StateNegative, sgraph.StateNegative}
	for v, w := range want {
		if c.States[v] != w {
			t.Errorf("state[%d] = %v, want %v", v, c.States[v], w)
		}
	}
	if c.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", c.Rounds)
	}
	if c.NumInfected() != 4 {
		t.Errorf("NumInfected = %d, want 4", c.NumInfected())
	}
	for v := 1; v < 4; v++ {
		if c.ActivatedBy[v] != int32(v-1) {
			t.Errorf("ActivatedBy[%d] = %d, want %d", v, c.ActivatedBy[v], v-1)
		}
		if c.Round[v] != int32(v) {
			t.Errorf("Round[%d] = %d, want %d", v, c.Round[v], v)
		}
	}
	if c.ActivatedBy[0] != -1 || c.Round[0] != 0 {
		t.Errorf("initiator bookkeeping wrong: by=%d round=%d", c.ActivatedBy[0], c.Round[0])
	}
}

func TestMFCNegativeSeedState(t *testing.T) {
	g := line(t, sgraph.Negative)
	c, err := MFC(g, []int{0}, []sgraph.State{sgraph.StateNegative}, MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// s(v) = s(u)*s(u,v) = (-1)*(-1) = +1.
	if c.States[1] != sgraph.StatePositive {
		t.Errorf("state[1] = %v, want +1", c.States[1])
	}
}

func TestMFCFlip(t *testing.T) {
	// B activates C over a negative link (C = -1); A later flips C to +1
	// over a trusted (positive) link. Weights 1 everywhere; B is one hop
	// closer so C is first activated negative.
	//   seed(0) -> B(1) -neg-> C(2),  seed(0) -> D(3) -> A(4) -pos-> C(2)
	b := sgraph.NewBuilder(5)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(1, 2, sgraph.Negative, 1)
	b.AddEdge(0, 3, sgraph.Positive, 1)
	b.AddEdge(3, 4, sgraph.Positive, 1)
	b.AddEdge(4, 2, sgraph.Positive, 1)
	g := b.MustBuild()
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[2] != sgraph.StatePositive {
		t.Errorf("state[C] = %v, want +1 after flip", c.States[2])
	}
	if c.Flips != 1 {
		t.Errorf("Flips = %d, want 1", c.Flips)
	}
	if c.ActivatedBy[2] != 4 {
		t.Errorf("ActivatedBy[C] = %d, want 4 (the flipper)", c.ActivatedBy[2])
	}
}

func TestMFCNoFlipOverNegativeLink(t *testing.T) {
	// Same shape, but the late link is negative: no flip allowed.
	b := sgraph.NewBuilder(5)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(1, 2, sgraph.Negative, 1)
	b.AddEdge(0, 3, sgraph.Positive, 1)
	b.AddEdge(3, 4, sgraph.Positive, 1)
	b.AddEdge(4, 2, sgraph.Negative, 1)
	g := b.MustBuild()
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[2] != sgraph.StateNegative {
		t.Errorf("state[C] = %v, want -1 (no flip over distrust)", c.States[2])
	}
	if c.Flips != 0 {
		t.Errorf("Flips = %d, want 0", c.Flips)
	}
}

func TestMFCDisableFlip(t *testing.T) {
	b := sgraph.NewBuilder(5)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(1, 2, sgraph.Negative, 1)
	b.AddEdge(0, 3, sgraph.Positive, 1)
	b.AddEdge(3, 4, sgraph.Positive, 1)
	b.AddEdge(4, 2, sgraph.Positive, 1)
	g := b.MustBuild()
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3, DisableFlip: true}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.States[2] != sgraph.StateNegative || c.Flips != 0 {
		t.Errorf("DisableFlip: state[C] = %v flips = %d, want -1 and 0", c.States[2], c.Flips)
	}
}

func TestMFCBoostedWeight(t *testing.T) {
	tests := []struct {
		sign sgraph.Sign
		w, a float64
		want float64
	}{
		{sgraph.Positive, 0.25, 3, 0.75},
		{sgraph.Positive, 0.5, 3, 1.0},   // capped
		{sgraph.Negative, 0.25, 3, 0.25}, // not boosted
		{sgraph.Positive, 0.25, 1, 0.25},
	}
	for _, tt := range tests {
		if got := BoostedWeight(tt.sign, tt.w, tt.a); got != tt.want {
			t.Errorf("BoostedWeight(%v,%g,%g) = %g, want %g", tt.sign, tt.w, tt.a, got, tt.want)
		}
	}
}

func TestMFCBoostRaisesPositiveSpread(t *testing.T) {
	// With identical weights, boosted positive links must infect more
	// nodes on average than alpha=1.
	cfg := gen.Config{Nodes: 500, Edges: 2500, PositiveRatio: 0.9, WeightLow: 0.05, WeightHigh: 0.15}
	g, err := gen.ErdosRenyi(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	spread := func(alpha float64) float64 {
		total := 0
		trials := 30
		rng := xrand.New(99)
		for i := 0; i < trials; i++ {
			c, err := MFC(g, []int{i}, []sgraph.State{sgraph.StatePositive}, MFCConfig{Alpha: alpha}, rng.Split())
			if err != nil {
				t.Fatal(err)
			}
			total += c.NumInfected()
		}
		return float64(total) / float64(trials)
	}
	if lo, hi := spread(1), spread(3); hi <= lo {
		t.Errorf("alpha=3 spread %.1f not above alpha=1 spread %.1f", hi, lo)
	}
}

func TestMFCFigure2SimultaneousActivation(t *testing.T) {
	// The paper's Figure 2 (left): B, C, D, E all try to activate A in
	// the same round; A trusts only E. With equal weights, boosting makes
	// E the most likely final activator of A.
	b := sgraph.NewBuilder(6)
	b.AddEdge(0, 1, sgraph.Positive, 1) // seed -> B
	b.AddEdge(0, 2, sgraph.Positive, 1) // seed -> C
	b.AddEdge(0, 3, sgraph.Positive, 1) // seed -> D
	b.AddEdge(0, 4, sgraph.Positive, 1) // seed -> E
	b.AddEdge(1, 5, sgraph.Negative, 0.25)
	b.AddEdge(2, 5, sgraph.Negative, 0.25)
	b.AddEdge(3, 5, sgraph.Negative, 0.25)
	b.AddEdge(4, 5, sgraph.Positive, 0.25) // A trusts E: boosted to 0.75
	g := b.MustBuild()
	byE, byOthers := 0, 0
	rng := xrand.New(77)
	for i := 0; i < 400; i++ {
		c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		switch c.ActivatedBy[5] {
		case 4:
			byE++
		case 1, 2, 3:
			byOthers++
		}
	}
	if byE <= byOthers {
		t.Errorf("A activated by trusted E %d times vs %d by distrusted users; boosting should favor E", byE, byOthers)
	}
}

func TestMFCSeedValidation(t *testing.T) {
	g := line(t, sgraph.Positive)
	cfg := MFCConfig{Alpha: 3}
	rng := xrand.New(1)
	if _, err := MFC(g, nil, nil, cfg, rng); !errors.Is(err, ErrNoInitiators) {
		t.Errorf("empty seeds: err = %v", err)
	}
	if _, err := MFC(g, []int{0}, nil, cfg, rng); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("mismatched states: err = %v", err)
	}
	if _, err := MFC(g, []int{5}, pos(t), cfg, rng); !errors.Is(err, ErrBadInitiator) {
		t.Errorf("out of range: err = %v", err)
	}
	if _, err := MFC(g, []int{0, 0}, []sgraph.State{sgraph.StatePositive, sgraph.StatePositive}, cfg, rng); !errors.Is(err, ErrBadInitiator) {
		t.Errorf("duplicate: err = %v", err)
	}
	if _, err := MFC(g, []int{0}, []sgraph.State{sgraph.StateInactive}, cfg, rng); !errors.Is(err, ErrInactiveSeed) {
		t.Errorf("inactive seed: err = %v", err)
	}
	if _, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 0.5}, rng); !errors.Is(err, ErrBadCoefficient) {
		t.Errorf("alpha<1: err = %v", err)
	}
}

func TestMFCTerminatesOnAdversarialCycles(t *testing.T) {
	// Dense positive cycles with weight 1 exercise the flip rule hard;
	// the one-attempt-per-edge rule must still terminate.
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(gen.Config{
			Nodes: 40, Edges: 400, PositiveRatio: 0.7, WeightLow: 0.9, WeightHigh: 1,
		}, xrand.New(seed))
		if err != nil {
			return false
		}
		c, err := MFC(g, []int{0, 1}, []sgraph.State{sgraph.StatePositive, sgraph.StateNegative}, MFCConfig{Alpha: 3}, xrand.New(seed+1))
		if err != nil {
			return false
		}
		return c.Attempts <= g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMFCActivationLinksFormForest(t *testing.T) {
	// Final activation links must give every non-initiator exactly one
	// parent, and following parents must reach an initiator (no cycles).
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: 300, Edges: 1500, PositiveRatio: 0.8}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	dif := g.Reverse()
	rng := xrand.New(7)
	seeds, states, err := SampleInitiators(dif.NumNodes(), 10, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MFC(dif, seeds, states, MFCConfig{Alpha: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	for v, s := range c.States {
		if !s.Active() {
			if c.FirstActivatedBy[v] != -1 {
				t.Errorf("inactive node %d has parent %d", v, c.FirstActivatedBy[v])
			}
			continue
		}
		// Walk first-activation parents to the root; must terminate within
		// n steps at a seed. (Final ActivatedBy pointers may cycle because
		// a flipper can be a cascade descendant of its target.)
		u, steps := v, 0
		for c.FirstActivatedBy[u] != -1 {
			next := int(c.FirstActivatedBy[u])
			if c.FirstRound[next] >= c.FirstRound[u] {
				t.Fatalf("first-activation rounds not decreasing: %d(round %d) -> %d(round %d)",
					u, c.FirstRound[u], next, c.FirstRound[next])
			}
			u = next
			steps++
			if steps > g.NumNodes() {
				t.Fatalf("first-activation parent chain from %d cycles", v)
			}
		}
		if !isSeed[u] {
			t.Errorf("chain from %d ends at non-seed %d", v, u)
		}
	}
}

func TestICMatchesMFCWithoutBoostAndFlip(t *testing.T) {
	g, err := gen.ErdosRenyi(gen.Config{Nodes: 100, Edges: 500, PositiveRatio: 0.7}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&icModel{}).Run(g, []int{0}, pos(t), xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 1, DisableFlip: true}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.States {
		if a.States[v] != b.States[v] {
			t.Fatalf("IC and MFC(1,noflip) diverge at node %d", v)
		}
	}
}

func TestLT(t *testing.T) {
	// Star with high weights: all leaves activate in round 1 given
	// thresholds below the weight; use weight 1 to force it.
	b := sgraph.NewBuilder(4)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(0, 2, sgraph.Negative, 1)
	b.AddEdge(0, 3, sgraph.Positive, 1)
	g := b.MustBuild()
	c, err := (&ltModel{cfg: LTConfig{}}).Run(g, []int{0}, pos(t), xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInfected() != 4 {
		t.Fatalf("LT infected = %d, want 4", c.NumInfected())
	}
	if c.States[2] != sgraph.StateNegative {
		t.Errorf("LT state[2] = %v, want -1 (negative in-link)", c.States[2])
	}
	if c.States[1] != sgraph.StatePositive || c.States[3] != sgraph.StatePositive {
		t.Error("LT positive leaves wrong")
	}
}

func TestLTRespectsThresholds(t *testing.T) {
	// Tiny weight: activation only if threshold happens to be below 0.01;
	// over many seeds the leaf should often stay inactive.
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.01)
	g := b.MustBuild()
	stayed := 0
	for seed := uint64(0); seed < 50; seed++ {
		c, err := (&ltModel{cfg: LTConfig{}}).Run(g, []int{0}, pos(t), xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !c.States[1].Active() {
			stayed++
		}
	}
	if stayed < 40 {
		t.Errorf("leaf activated too often: stayed inactive %d/50", stayed)
	}
}

func TestSIR(t *testing.T) {
	g := line(t, sgraph.Positive, sgraph.Positive, sgraph.Positive)
	c, err := (&sirModel{cfg: SIRConfig{Beta: 5, Gamma: 0.01}}).Run(g, []int{0}, pos(t), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Beta*w >= 1 and slow recovery: the whole line should infect.
	if c.NumInfected() != 4 {
		t.Errorf("SIR infected = %d, want 4", c.NumInfected())
	}
}

func TestSIRValidation(t *testing.T) {
	g := line(t, sgraph.Positive)
	if _, err := (&sirModel{cfg: SIRConfig{Beta: 0, Gamma: 0.5}}).Run(g, []int{0}, pos(t), xrand.New(1)); !errors.Is(err, ErrBadCoefficient) {
		t.Errorf("beta=0: err = %v", err)
	}
	if _, err := (&sirModel{cfg: SIRConfig{Beta: 1, Gamma: 0}}).Run(g, []int{0}, pos(t), xrand.New(1)); !errors.Is(err, ErrBadCoefficient) {
		t.Errorf("gamma=0: err = %v", err)
	}
	if _, err := (&sirModel{cfg: SIRConfig{Beta: 1, Gamma: 1.5}}).Run(g, []int{0}, pos(t), xrand.New(1)); !errors.Is(err, ErrBadCoefficient) {
		t.Errorf("gamma>1: err = %v", err)
	}
}

func TestSampleInitiators(t *testing.T) {
	rng := xrand.New(5)
	nodes, states, err := SampleInitiators(1000, 100, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 100 || len(states) != 100 {
		t.Fatalf("lengths = %d, %d; want 100, 100", len(nodes), len(states))
	}
	seen := make(map[int]bool)
	positives := 0
	for i, u := range nodes {
		if u < 0 || u >= 1000 || seen[u] {
			t.Fatalf("bad or duplicate node %d", u)
		}
		seen[u] = true
		switch states[i] {
		case sgraph.StatePositive:
			positives++
		case sgraph.StateNegative:
		default:
			t.Fatalf("state[%d] = %v", i, states[i])
		}
	}
	if positives != 30 {
		t.Errorf("positives = %d, want 30", positives)
	}
}

func TestSampleInitiatorsValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, _, err := SampleInitiators(10, 0, 0.5, rng); err == nil {
		t.Error("count=0 should error")
	}
	if _, _, err := SampleInitiators(10, 11, 0.5, rng); err == nil {
		t.Error("count>n should error")
	}
	if _, _, err := SampleInitiators(10, 5, 1.5, rng); err == nil {
		t.Error("theta>1 should error")
	}
}

func TestMaskStates(t *testing.T) {
	states := []sgraph.State{
		sgraph.StatePositive, sgraph.StateNegative, sgraph.StateInactive, sgraph.StatePositive,
	}
	masked := MaskStates(states, 1, xrand.New(1))
	if masked[0] != sgraph.StateUnknown || masked[1] != sgraph.StateUnknown || masked[3] != sgraph.StateUnknown {
		t.Errorf("full mask left active states: %v", masked)
	}
	if masked[2] != sgraph.StateInactive {
		t.Error("mask touched inactive state")
	}
	if states[0] != sgraph.StatePositive {
		t.Error("MaskStates mutated its input")
	}
	unmasked := MaskStates(states, 0, xrand.New(1))
	for i := range states {
		if unmasked[i] != states[i] {
			t.Error("zero fraction changed states")
		}
	}
}

func TestSpreadCurve(t *testing.T) {
	g := line(t, sgraph.Positive, sgraph.Positive, sgraph.Positive)
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	curve := c.SpreadCurve()
	want := []int{1, 2, 3, 4}
	if len(curve) != len(want) {
		t.Fatalf("curve = %v, want %v", curve, want)
	}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
	// Monotone non-decreasing by construction on any cascade.
	g2, err := gen.PreferentialAttachment(gen.Config{Nodes: 300, Edges: 1500, PositiveRatio: 0.8}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	seeds, states, err := SampleInitiators(300, 10, 0.5, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := MFC(g2.Reverse(), seeds, states, MFCConfig{Alpha: 3}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	curve2 := c2.SpreadCurve()
	if curve2[0] != 10 {
		t.Errorf("curve[0] = %d, want 10 initiators", curve2[0])
	}
	for i := 1; i < len(curve2); i++ {
		if curve2[i] < curve2[i-1] {
			t.Fatalf("curve not monotone: %v", curve2)
		}
	}
}

func TestHideInfected(t *testing.T) {
	states := []sgraph.State{
		sgraph.StatePositive, sgraph.StateNegative, sgraph.StateInactive, sgraph.StateUnknown,
	}
	hidden := HideInfected(states, 1, xrand.New(1))
	if hidden[0] != sgraph.StateInactive || hidden[1] != sgraph.StateInactive {
		t.Errorf("full hide left active states: %v", hidden)
	}
	if hidden[2] != sgraph.StateInactive || hidden[3] != sgraph.StateUnknown {
		t.Error("hide touched non-active entries")
	}
	if states[0] != sgraph.StatePositive {
		t.Error("HideInfected mutated its input")
	}
	same := HideInfected(states, 0, xrand.New(1))
	for i := range states {
		if same[i] != states[i] {
			t.Error("zero fraction changed states")
		}
	}
}

func TestCascadeInfected(t *testing.T) {
	g := line(t, sgraph.Positive, sgraph.Positive)
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	inf := c.Infected()
	if len(inf) != 3 || inf[0] != 0 || inf[2] != 2 {
		t.Errorf("Infected = %v, want [0 1 2]", inf)
	}
}

func TestSampleRounds(t *testing.T) {
	g := line(t, sgraph.Positive, sgraph.Positive)
	c, err := MFC(g, []int{0}, pos(t), MFCConfig{Alpha: 3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	full := SampleRounds(c, 1, xrand.New(2))
	for v := 0; v < 3; v++ {
		if full[v] != c.FirstRound[v] {
			t.Errorf("full[%d] = %d, want %d", v, full[v], c.FirstRound[v])
		}
	}
	none := SampleRounds(c, 0, xrand.New(2))
	for v, r := range none {
		if r != -1 {
			t.Errorf("none[%d] = %d, want -1", v, r)
		}
	}
}
