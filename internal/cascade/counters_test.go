package cascade

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sgraph"
)

// timedSnapshot is a two-node infected pair whose timestamps rule out the
// only candidate activation link (1 infected before 0), so extraction must
// time-prune it.
func timedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.9)
	b.AddEdge(1, 0, sgraph.Positive, 0.9)
	g := b.MustBuild()
	states := []sgraph.State{sgraph.StatePositive, sgraph.StatePositive}
	snap, err := NewSnapshotWithRounds(g, states, []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestExtractCounterSet(t *testing.T) {
	snap := chainSnapshot(t)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	forest, err := ExtractContext(ctx, snap, Config{Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	if cs == nil {
		t.Fatal("no CounterSet recorded by extraction")
	}
	if cs.Cascade.InfectedNodes != 3 || cs.Cascade.Components != 1 {
		t.Fatalf("cascade counters: %+v", cs.Cascade)
	}
	if cs.Cascade.Trees != int64(len(forest.Trees)) {
		t.Fatalf("Trees = %d, want %d", cs.Cascade.Trees, len(forest.Trees))
	}
	if cs.Cascade.EdgesScanned == 0 {
		t.Fatal("EdgesScanned not counted")
	}
	if got := cs.Cascade.TreeSize.Count(); got != int64(len(forest.Trees)) {
		t.Fatalf("TreeSize observations = %d, want %d", got, len(forest.Trees))
	}
	if cs.Cascade.TreeSize.Max != 3 {
		t.Fatalf("TreeSize.Max = %d, want 3", cs.Cascade.TreeSize.Max)
	}
	if got := cs.Cascade.TreeDepth.Count(); got != int64(len(forest.Trees)) {
		t.Fatalf("TreeDepth observations = %d, want %d", got, len(forest.Trees))
	}
	// The pooled solver ran under the worker's batch: one Tarjan solve for
	// the single component, with its staged edges counted.
	if cs.Arbor.TarjanSolves != 1 {
		t.Fatalf("TarjanSolves = %d, want 1", cs.Arbor.TarjanSolves)
	}
	if cs.Arbor.EdgesStaged == 0 {
		t.Fatal("EdgesStaged not counted through the pooled solver")
	}
}

func TestExtractCounterSetNoRecorder(t *testing.T) {
	// Without a recorder the same path must run clean (nil Accum/CS) and a
	// later recorded extraction must not inherit pooled-solver counters.
	snap := chainSnapshot(t)
	if _, err := Extract(snap, Config{Alpha: 3}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := ExtractContext(ctx, snap, Config{Alpha: 3}); err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	if cs == nil || cs.Arbor.TarjanSolves != 1 {
		t.Fatalf("recorded run after pooled unrecorded run: %+v", cs)
	}
}

func TestExtractTimePrunedCounter(t *testing.T) {
	snap := timedSnapshot(t)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := ExtractContext(ctx, snap, Config{Alpha: 3}); err != nil {
		t.Fatal(err)
	}
	cs := rec.CounterSetSnapshot()
	if cs == nil || cs.Cascade.TimePruned == 0 {
		t.Fatalf("TimePruned not counted: %+v", cs)
	}
}

// TestNoInfectedRecordsComponentsSpan pins the early-return path: a
// snapshot with no infected nodes still ran the components stage, so its
// span must be recorded before ErrNoInfected comes back.
func TestNoInfectedRecordsComponentsSpan(t *testing.T) {
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Positive, 0.9)
	snap, err := NewSnapshot(b.MustBuild(), make([]sgraph.State, 2))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := ExtractContext(obs.WithRecorder(context.Background(), rec), snap, Config{Alpha: 3}); !errors.Is(err, ErrNoInfected) {
		t.Fatalf("err = %v, want ErrNoInfected", err)
	}
	if got := rec.Stages()[obs.StageComponents].Count; got != 1 {
		t.Fatalf("components spans = %d, want 1; stages %v", got, rec.Stages())
	}
}
