package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDetectStageCoverage runs one full RID detect with a recorder
// attached and asserts that the recorded stage set covers the pipeline of
// Sections III-C/E — component split, arborescence extraction, tree
// assembly and the per-tree DP — and that the per-stage wall times sum to
// no more than the end-to-end detect time (the stages are disjoint by
// construction).
func TestDetectStageCoverage(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid := mustRID(t, 0.3)

	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	start := time.Now()
	det, err := rid.DetectContext(ctx, sim.snap)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Initiators) == 0 {
		t.Fatal("no initiators detected; fixture too small")
	}

	stages := rec.Stages()
	for _, want := range []string{
		obs.StageComponents, obs.StageArborescence, obs.StageTreeBuild, obs.StageTreeDP,
	} {
		if stages[want].Count == 0 {
			t.Errorf("stage %q not recorded; got %v", want, stages)
		}
	}
	var sum time.Duration
	for name, st := range stages {
		if st.Total < 0 || st.Max > st.Total {
			t.Errorf("stage %q has implausible aggregates %+v", name, st)
		}
		sum += st.Total
	}
	if sum > elapsed {
		t.Errorf("stage durations sum to %v > end-to-end %v; stages overlap", sum, elapsed)
	}

	cs := rec.CounterSetSnapshot()
	if cs == nil {
		t.Fatal("detect recorded no counters")
	}
	if cs.Cascade.Components < 1 {
		t.Errorf("components counter = %d, want >= 1", cs.Cascade.Components)
	}
	if got, want := cs.Cascade.Trees, int64(det.Trees); got != want {
		t.Errorf("trees counter = %d, want %d (detection's tree count)", got, want)
	}
	if cs.Cascade.InfectedNodes < cs.Cascade.Components {
		t.Errorf("infected_nodes %d < components %d", cs.Cascade.InfectedNodes, cs.Cascade.Components)
	}
	// Tree nodes are the tree-size histogram's sum.
	if got := cs.Cascade.TreeSize.Sum; got != cs.Cascade.InfectedNodes {
		t.Errorf("tree nodes = %d, want %d (forest spans the infected subgraph)",
			got, cs.Cascade.InfectedNodes)
	}
	if cs.ISOMIT.DPCells < cs.Cascade.TreeSize.Sum {
		t.Errorf("dp_cells %d < tree nodes %d: every node costs at least one cell",
			cs.ISOMIT.DPCells, cs.Cascade.TreeSize.Sum)
	}
	// Candidate edges are the scanned links that survive time pruning.
	if cs.Cascade.EdgesScanned-cs.Cascade.TimePruned <= 0 {
		t.Errorf("no candidate edges counted: scanned %d, pruned %d",
			cs.Cascade.EdgesScanned, cs.Cascade.TimePruned)
	}
}

// TestDetectStageCoverageBudgetDP asserts the budget-DP path records the
// binarize stage and the fallback counter for oversized trees.
func TestDetectStageCoverageBudgetDP(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid, err := NewRID(RIDConfig{
		Alpha: 3, Beta: 0.3, Objective: ObjectivePartition,
		UseBudgetDP: true, MaxBudgetTreeSize: 4, // tiny cap: force fallbacks
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
		t.Fatal(err)
	}
	stages := rec.Stages()
	if stages[obs.StageBinarize].Count == 0 && rec.CounterSetSnapshot().ISOMIT.BudgetFallbacks == 0 {
		t.Error("budget-DP run recorded neither binarize spans nor fallbacks")
	}
	if stages[obs.StageTreeDP].Count == 0 {
		t.Error("tree_dp stage not recorded on the budget path")
	}
}

// TestDetectCounterSet asserts a recorded detect carries the typed
// algorithm-depth counters across every pipeline layer, consistent with
// the detection they describe.
func TestDetectCounterSet(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid := mustRID(t, 0.3)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	det, err := rid.DetectContext(ctx, sim.snap)
	if err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	if cs == nil {
		t.Fatal("detect recorded no CounterSet")
	}
	if cs.Cascade.Components != int64(det.Components) || cs.Cascade.Trees != int64(det.Trees) {
		t.Fatalf("typed cascade counters %+v disagree with detection (%d components, %d trees)",
			cs.Cascade, det.Components, det.Trees)
	}
	// The default objective solves every tree with the local rule.
	if cs.ISOMIT.LocalSolves != int64(det.Trees) {
		t.Fatalf("LocalSolves = %d, want %d", cs.ISOMIT.LocalSolves, det.Trees)
	}
	// One Tarjan solve per component, via the pooled extraction solvers.
	if cs.Arbor.TarjanSolves != cs.Cascade.Components {
		t.Fatalf("TarjanSolves = %d, want %d (one per component)",
			cs.Arbor.TarjanSolves, cs.Cascade.Components)
	}
	if cs.Arbor.EdgesStaged == 0 || cs.Cascade.EdgesScanned == 0 {
		t.Fatalf("edge work not counted: %+v / %+v", cs.Arbor, cs.Cascade)
	}
	if got := cs.Cascade.TreeSize.Count(); got != cs.Cascade.Trees {
		t.Fatalf("TreeSize observations = %d, want %d", got, cs.Cascade.Trees)
	}
	if cs.Cascade.TreeSize.Sum != cs.Cascade.InfectedNodes {
		t.Fatalf("TreeSize.Sum = %d, want infected nodes %d",
			cs.Cascade.TreeSize.Sum, cs.Cascade.InfectedNodes)
	}
}

// TestDetectCounterSetBudgetDP asserts the auto budget path counts its DP
// modes, k-selection rounds and fallbacks.
func TestDetectCounterSetBudgetDP(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid, err := NewRID(RIDConfig{
		Alpha: 3, Beta: 0.3, Objective: ObjectivePartition,
		UseBudgetDP: true, MaxBudgetTreeSize: 4, // tiny cap: force fallbacks
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	if cs == nil {
		t.Fatal("no CounterSet recorded")
	}
	if cs.ISOMIT.BudgetSolves == 0 && cs.ISOMIT.BudgetFallbacks == 0 {
		t.Fatalf("budget path counted neither solves nor fallbacks: %+v", cs.ISOMIT)
	}
	if cs.ISOMIT.BudgetSolves > 0 && cs.ISOMIT.AutoRounds < cs.ISOMIT.BudgetSolves {
		t.Fatalf("AutoRounds %d < BudgetSolves %d: every auto solve tries ≥ 1 k",
			cs.ISOMIT.AutoRounds, cs.ISOMIT.BudgetSolves)
	}
}

// TestDetectNoRecorderUnchanged guards the zero-cost contract: a detect
// without a recorder must behave identically (already covered by every
// other test) and record nothing through a recorder attached to a
// *different* context.
func TestDetectNoRecorderUnchanged(t *testing.T) {
	sim := simulate(t, 11, 200, 1200, 6)
	rid := mustRID(t, 0.3)
	rec := obs.NewRecorder()
	if _, err := rid.DetectContext(context.Background(), sim.snap); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stages(); len(got) != 0 {
		t.Fatalf("unattached recorder observed stages: %v", got)
	}
}

// BenchmarkDetectObsOverhead measures the instrumentation tax: the same
// detect with no recorder attached (the no-op path every batch caller
// takes) vs. with a live recorder (the serving path). The acceptance bar
// is < 2% overhead for the no-recorder path relative to pre-obs code;
// compare these two benches and the historical BenchmarkRIDEndToEnd.
func BenchmarkDetectObsOverhead(b *testing.B) {
	sim := simulate(b, 11, 2000, 12000, 60)
	rid, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("no-recorder", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder())
			if _, err := rid.DetectContext(ctx, sim.snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}
