package core

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/cascade"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// simulated produces a ground-truth MFC cascade snapshot on a synthetic
// signed network, mirroring the paper's experimental protocol.
type simulated struct {
	snap   *cascade.Snapshot
	seeds  []int
	states []sgraph.State
}

func simulate(tb testing.TB, seed uint64, nodes, edges, nSeeds int) *simulated {
	tb.Helper()
	rng := xrand.New(seed)
	g, err := gen.PreferentialAttachment(gen.Config{
		Nodes: nodes, Edges: edges, PositiveRatio: 0.8,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	dif := sgraph.WeightByJaccard(g, 0.1, rng).Reverse()
	seeds, states, err := diffusion.SampleInitiators(dif.NumNodes(), nSeeds, 0.5, rng)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: 3}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := cascade.NewSnapshot(dif, c.States)
	if err != nil {
		tb.Fatal(err)
	}
	return &simulated{snap: snap, seeds: seeds, states: states}
}

func TestNewRIDValidation(t *testing.T) {
	if _, err := NewRID(RIDConfig{Alpha: 0.5}); err == nil {
		t.Error("alpha < 1 should error")
	}
	if _, err := NewRID(RIDConfig{Beta: -0.1}); err == nil {
		t.Error("negative beta should error")
	}
	r, err := NewRID(RIDConfig{Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "RID(0.1)" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestNewRIDTreeValidation(t *testing.T) {
	if _, err := NewRIDTree(0); err == nil {
		t.Error("alpha < 1 should error")
	}
}

func TestPipelineShape(t *testing.T) {
	// Heavy cascade overlap, matching the regime of the paper's Figure 4
	// (their RID-Tree recall is 13%; this workload lands at ~12%).
	sim := simulate(t, 42, 3000, 19500, 150)

	rid, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewRIDTree(3)
	if err != nil {
		t.Fatal(err)
	}
	detRID, err := rid.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	detTree, err := tree.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	detPos, err := RIDPositive{}.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}

	idRID := metrics.EvalIdentity(detRID.Initiators, sim.seeds)
	idTree := metrics.EvalIdentity(detTree.Initiators, sim.seeds)
	idPos := metrics.EvalIdentity(detPos.Initiators, sim.seeds)
	t.Logf("RID:      %+v", idRID)
	t.Logf("RID-Tree: %+v", idTree)
	t.Logf("RID-Pos:  %+v", idPos)

	// Paper's Figure 4 shape: RID-Tree has (near-)perfect precision but
	// limited recall; RID trades a little precision for much more recall
	// and the best F1.
	if idTree.Precision < 0.9 {
		t.Errorf("RID-Tree precision = %g, want >= 0.9", idTree.Precision)
	}
	if idRID.Recall <= idTree.Recall {
		t.Errorf("RID recall %g not above RID-Tree recall %g", idRID.Recall, idTree.Recall)
	}
	if idRID.F1 <= idTree.F1 {
		t.Errorf("RID F1 %g not above RID-Tree F1 %g", idRID.F1, idTree.F1)
	}
	if idRID.F1 <= idPos.F1 {
		t.Errorf("RID F1 %g not above RID-Positive F1 %g", idRID.F1, idPos.F1)
	}

	// RID infers states; over correctly identified initiators they should
	// be mostly right.
	st, err := metrics.EvalStates(detRID.Initiators, detRID.States, sim.seeds, sim.states)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compared == 0 {
		t.Fatal("no correctly identified initiators to score")
	}
	if st.Accuracy < 0.6 {
		t.Errorf("state accuracy = %g, want >= 0.6", st.Accuracy)
	}

	// Baselines report identities only.
	if detTree.States != nil || detPos.States != nil {
		t.Error("baseline detections should carry no states")
	}
	// RID detections carry one state per initiator.
	if len(detRID.States) != len(detRID.Initiators) {
		t.Error("RID states misaligned")
	}
}

func TestRIDBetaTradeoff(t *testing.T) {
	sim := simulate(t, 7, 2000, 10000, 30)
	var prevDetected = 1 << 30
	var prevPrecision float64
	for _, beta := range []float64{0.0, 0.2, 0.6, 1.0} {
		rid, err := NewRID(RIDConfig{Alpha: 3, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		det, err := rid.Detect(sim.snap)
		if err != nil {
			t.Fatal(err)
		}
		id := metrics.EvalIdentity(det.Initiators, sim.seeds)
		t.Logf("beta=%.1f detected=%d P=%.3f R=%.3f F1=%.3f", beta, len(det.Initiators), id.Precision, id.Recall, id.F1)
		if len(det.Initiators) > prevDetected {
			t.Errorf("beta=%g detected %d initiators, more than smaller beta (%d)", beta, len(det.Initiators), prevDetected)
		}
		prevDetected = len(det.Initiators)
		if id.Precision+1e-9 < prevPrecision {
			// Precision should not collapse as beta grows; allow noise but
			// catch gross regressions.
			if prevPrecision-id.Precision > 0.1 {
				t.Errorf("beta=%g precision dropped sharply: %g -> %g", beta, prevPrecision, id.Precision)
			}
		}
		prevPrecision = id.Precision
	}
}

func TestRIDDeterministic(t *testing.T) {
	sim := simulate(t, 9, 1000, 5000, 15)
	rid, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rid.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rid.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Initiators) != len(b.Initiators) {
		t.Fatal("nondeterministic detection size")
	}
	for i := range a.Initiators {
		if a.Initiators[i] != b.Initiators[i] || a.States[i] != b.States[i] {
			t.Fatal("nondeterministic detection")
		}
	}
}

func TestDetectionSorted(t *testing.T) {
	sim := simulate(t, 11, 1000, 5000, 15)
	for _, d := range []Detector{mustRID(t, 0.1), mustRIDTree(t), RIDPositive{}, RumorCentrality{}} {
		det, err := d.Detect(sim.snap)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !sort.IntsAreSorted(det.Initiators) {
			t.Errorf("%s initiators not sorted", d.Name())
		}
		if len(det.Initiators) == 0 {
			t.Errorf("%s detected nothing", d.Name())
		}
	}
}

func mustRID(t *testing.T, beta float64) *RID {
	t.Helper()
	r, err := NewRID(RIDConfig{Alpha: 3, Beta: beta})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustRIDTree(t *testing.T) *RIDTree {
	t.Helper()
	d, err := NewRIDTree(3)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRIDTreeRootsAreInitiatorsOnForests(t *testing.T) {
	// On a cascade whose infected subgraph happens to be cycle-free, every
	// extracted root has no infected in-neighbor, hence must be a true
	// initiator (the paper's 100%-precision argument). We check the
	// weaker, always-true form: every detected root either is a true
	// initiator or has at least one infected in-neighbor (cycle case).
	sim := simulate(t, 21, 2000, 10000, 25)
	det, err := mustRIDTree(t).Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	isSeed := make(map[int]bool)
	for _, s := range sim.seeds {
		isSeed[s] = true
	}
	infected := make(map[int]bool)
	for _, v := range sim.snap.Infected() {
		infected[v] = true
	}
	for _, r := range det.Initiators {
		if isSeed[r] {
			continue
		}
		hasInfectedIn := false
		sim.snap.G.In(r, func(e sgraph.Edge) {
			if infected[e.From] {
				hasInfectedIn = true
			}
		})
		if !hasInfectedIn {
			t.Errorf("root %d is no initiator yet has no infected in-neighbor", r)
		}
	}
}

func TestRumorCentralityOnePerComponent(t *testing.T) {
	sim := simulate(t, 31, 1500, 7000, 20)
	det, err := RumorCentrality{}.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) != det.Components {
		t.Errorf("detected %d, want one per component (%d)", len(det.Initiators), det.Components)
	}
}

func TestCentersEmptySnapshot(t *testing.T) {
	g := sgraph.NewBuilder(3).MustBuild()
	snap, err := cascade.NewSnapshot(g, make([]sgraph.State, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (RumorCentrality{}).Detect(snap); !errors.Is(err, cascade.ErrNoInfected) {
		t.Errorf("RumorCentrality on empty snapshot: err = %v, want ErrNoInfected", err)
	}
}

func TestRumorCentralityStarCenter(t *testing.T) {
	// On a star the rumor center is the hub.
	b := sgraph.NewBuilder(6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, i, sgraph.Positive, 0.5)
	}
	g := b.MustBuild()
	states := make([]sgraph.State, 6)
	for i := range states {
		states[i] = sgraph.StatePositive
	}
	snap, err := cascade.NewSnapshot(g, states)
	if err != nil {
		t.Fatal(err)
	}
	det, err := RumorCentrality{}.Detect(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) != 1 || det.Initiators[0] != 0 {
		t.Errorf("rumor center = %v, want [0]", det.Initiators)
	}
}

func TestRIDBudgetDPVariant(t *testing.T) {
	sim := simulate(t, 13, 500, 2000, 8)
	pen, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.2, Objective: ObjectivePartition})
	if err != nil {
		t.Fatal(err)
	}
	bud, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.2, Objective: ObjectivePartition, UseBudgetDP: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pen.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	bdet, err := bud.Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	// The budget variant's incremental-k stop is a heuristic, so demand
	// agreement in the aggregate rather than per node: tree counts equal,
	// detected counts within 20%.
	if a.Trees != bdet.Trees {
		t.Errorf("tree counts differ: %d vs %d", a.Trees, bdet.Trees)
	}
	lo, hi := len(a.Initiators), len(bdet.Initiators)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || float64(hi-lo) > 0.2*float64(hi)+2 {
		t.Errorf("detected counts diverge: %d vs %d", len(a.Initiators), len(bdet.Initiators))
	}
}

func TestDetectorsOnUnknownStates(t *testing.T) {
	sim := simulate(t, 17, 1500, 7000, 20)
	rng := xrand.New(99)
	masked := diffusion.MaskStates(sim.snap.States, 0.3, rng)
	snap, err := cascade.NewSnapshot(sim.snap.G, masked)
	if err != nil {
		t.Fatal(err)
	}
	rid := mustRID(t, 0.1)
	det, err := rid.Detect(snap)
	if err != nil {
		t.Fatal(err)
	}
	id := metrics.EvalIdentity(det.Initiators, sim.seeds)
	if id.F1 == 0 {
		t.Error("RID found nothing useful under 30% masking")
	}
	// All inferred states are concrete even though inputs were masked.
	for _, s := range det.States {
		if !s.Active() {
			t.Fatalf("non-concrete inferred state %v", s)
		}
	}
}

func TestRIDConfidenceRanking(t *testing.T) {
	sim := simulate(t, 71, 2000, 12000, 60)
	det, err := mustRID(t, 0.2).Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Confidence) != len(det.Initiators) {
		t.Fatalf("confidence misaligned: %d vs %d", len(det.Confidence), len(det.Initiators))
	}
	for _, c := range det.Confidence {
		if c < 0 || c > 1 {
			t.Fatalf("confidence %g out of [0,1]", c)
		}
	}
	ranked := det.Ranked()
	if len(ranked) != len(det.Initiators) {
		t.Fatal("Ranked changed length")
	}
	// Top-ranked detections should be at least as precise as the full
	// set: confident picks are roots and near-impossible links.
	k := len(ranked) / 3
	if k < 1 {
		k = 1
	}
	topP := metrics.PrecisionAtK(ranked, sim.seeds, k)
	fullP := metrics.PrecisionAtK(ranked, sim.seeds, len(ranked))
	if topP+0.05 < fullP {
		t.Errorf("top-%d precision %g well below overall %g; ranking is anti-informative", k, topP, fullP)
	}
	// Baselines carry no confidence; Ranked still works.
	dt, err := mustRIDTree(t).Detect(sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Confidence != nil {
		t.Error("RID-Tree should not carry confidence")
	}
	if got := dt.Ranked(); len(got) != len(dt.Initiators) {
		t.Error("Ranked on unscored detection broken")
	}
}

// TestNewDetector pins the name table ridserve and ridlab share: every
// name builds its detector, zero values select rid with α = 3, β = 0.3,
// and an unknown name wraps ErrUnknownDetector with the served message.
func TestNewDetector(t *testing.T) {
	for name, want := range map[string]string{
		"":                 "RID(0.3)",
		"rid":              "RID(0.3)",
		"rid-tree":         "RID-Tree",
		"rid-positive":     "RID-Positive",
		"rumor-centrality": "RumorCentrality",
	} {
		d, err := NewDetector(name, 0, 0, 1)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if d.Name() != want {
			t.Errorf("%q: built %s, want %s", name, d.Name(), want)
		}
	}
	// "ensemble" is a retired name: it must stay unknown.
	for _, name := range []string{"nope", "ensemble"} {
		_, err := NewDetector(name, 0, 0, 1)
		if !errors.Is(err, ErrUnknownDetector) || err.Error() != `unknown detector "`+name+`"` {
			t.Fatalf("unknown name %q: err = %v", name, err)
		}
	}
}

func TestRIDStatesConcrete(t *testing.T) {
	// Every RID state must be ±1 even with unknowns everywhere.
	sim := simulate(t, 81, 700, 4200, 12)
	masked := diffusion.MaskStates(sim.snap.States, 0.6, xrand.New(3))
	snap, err := cascade.NewSnapshot(sim.snap.G, masked)
	if err != nil {
		t.Fatal(err)
	}
	det, err := mustRID(t, 0.2).Detect(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range det.States {
		if s != sgraph.StatePositive && s != sgraph.StateNegative {
			t.Fatalf("non-concrete state %v", s)
		}
	}
}
