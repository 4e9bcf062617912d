package cascade

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/arbor"
	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// diffSnapshot simulates one cascade over a random signed network, with
// optional partial timing metadata, for differential tests.
func diffSnapshot(t *testing.T, seed uint64, nodes int, withRounds bool) *Snapshot {
	t.Helper()
	rng := xrand.New(seed)
	g, err := gen.PreferentialAttachment(gen.Config{
		Nodes: nodes, Edges: nodes * 5, PositiveRatio: 0.8,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dif := sgraph.WeightByJaccard(g, 0.1, rng).Reverse()
	seeds, seedStates, err := diffusion.SampleInitiators(nodes, 3, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := diffusion.MFC(dif, seeds, seedStates, diffusion.MFCConfig{Alpha: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !withRounds {
		snap, err := NewSnapshot(dif, c.States)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// Partial timing: keep roughly half the rounds, drop the rest.
	rounds := make([]int32, len(c.FirstRound))
	for v, r := range c.FirstRound {
		rounds[v] = r
		if r >= 0 && rng.Bool(0.5) {
			rounds[v] = -1
		}
	}
	snap, err := NewSnapshotWithRounds(dif, c.States, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameForest asserts two forests are identical in every field the
// downstream DP and detection read — DeepEqual over the trees catches any
// drift in structure, states, scores, or ordering.
func sameForest(t *testing.T, name string, want, got *Forest) {
	t.Helper()
	if want.Components != got.Components {
		t.Fatalf("%s: components %d vs %d", name, want.Components, got.Components)
	}
	if len(want.Trees) != len(got.Trees) {
		t.Fatalf("%s: trees %d vs %d", name, len(want.Trees), len(got.Trees))
	}
	for i := range want.Trees {
		if !reflect.DeepEqual(want.Trees[i], got.Trees[i]) {
			t.Fatalf("%s: tree %d differs\nwant %+v\ngot  %+v", name, i, want.Trees[i], got.Trees[i])
		}
	}
	ws, gs := want.Stats(), got.Stats()
	if !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: stats differ\nwant %+v\ngot  %+v", name, ws, gs)
	}
}

// TestExtractMatchesReference pins the bitset/frontier/arena hot path to
// the induced-subgraph reference implementation, bit for bit — same trees,
// same totals — across configurations and at Parallelism 1 vs 8.
func TestExtractMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		withRounds bool
	}{
		{"boosted", Config{Alpha: 3}, false},
		{"raw", Config{Alpha: 1, Mode: ModeRaw}, false},
		{"positive-only", Config{Alpha: 3, PositiveOnly: true}, false},
		{"timed", Config{Alpha: 3}, true},
		{"timed-positive-only", Config{Alpha: 2, PositiveOnly: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				snap := diffSnapshot(t, 40+seed, 150, tc.withRounds)
				want, err := referenceExtract(snap, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{1, 8} {
					cfg := tc.cfg
					cfg.Parallelism = p
					got, err := Extract(snap, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameForest(t, tc.name, want, got)
				}
			}
		})
	}
}

// TestExtractMatchesReferenceMultiComponent exercises the component
// partition itself: several disjoint outbreaks must yield the same
// components in the same order on both paths.
func TestExtractMatchesReferenceMultiComponent(t *testing.T) {
	snap := multiComponentSnapshot(t, 5, 90)
	for _, positiveOnly := range []bool{false, true} {
		cfg := Config{Alpha: 3, PositiveOnly: positiveOnly}
		want, err := referenceExtract(snap, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallelism = 8
		got, err := Extract(snap, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameForest(t, "multi-component", want, got)
	}
}

// TestMaskComponentsMatchInduced pins the frontier-BFS component partition
// against the induced-subgraph one, including the PositiveOnly split.
func TestMaskComponentsMatchInduced(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		snap := diffSnapshot(t, 90+seed, 120, false)
		infected := snap.Infected()
		if len(infected) == 0 {
			continue
		}
		for _, positiveOnly := range []bool{false, true} {
			sub := sgraph.Induce(snap.G, infected)
			if positiveOnly {
				sub = dropNegative(sub)
			}
			var want [][]int32
			for _, comp := range sgraph.ConnectedComponents(sub.G) {
				members := make([]int32, len(comp))
				for i, v := range comp {
					members[i] = int32(sub.Orig[v])
				}
				want = append(want, members)
			}
			got := maskComponents(snap.G, infected, positiveOnly)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d positiveOnly=%v:\nwant %v\ngot  %v", seed, positiveOnly, want, got)
			}
		}
	}
}

// TestArenaTreesIsolated guards the arena layout: appending past one
// tree's carved capacity (what Binarize-style consumers do) must
// reallocate, never land in the next tree's arena segment. Without the
// three-index capacity clamp, the sentinel appended to tree i would
// overwrite node 0 of tree i+1.
func TestArenaTreesIsolated(t *testing.T) {
	snap := diffSnapshot(t, 77, 200, false)
	cfg := Config{Alpha: 3}
	forest, err := Extract(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceExtract(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range forest.Trees {
		_ = append(tr.Orig, -7)
		_ = append(tr.Parent, -7)
		_ = append(tr.Score, 0.123)
		_ = append(tr.State, sgraph.StateUnknown)
		for i := range tr.Children {
			_ = append(tr.Children[i], -7)
		}
	}
	sameForest(t, "after appends", want, forest)
}

// The oracle below keeps the pre-flat-layout extraction pipeline — induced
// subgraph via sgraph.Induce (map-based re-indexing), per-tree slice
// allocation, closure-based edge iteration — as a differential oracle for
// the bitset/frontier/arena hot path in extractComponent, compiled into
// tests only. The two paths must agree bit for bit: same components in the
// same order, same candidate edge order, same arbor input, same trees,
// same totals.

// referenceExtract is the old Extract: detect infected components on an
// induced subgraph and solve each serially with fresh allocations.
func referenceExtract(snap *Snapshot, cfg Config) (*Forest, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	infected := snap.Infected()
	if len(infected) == 0 {
		return nil, ErrNoInfected
	}
	sub := sgraph.Induce(snap.G, infected)
	if cfg.PositiveOnly {
		sub = dropNegative(sub)
	}
	comps := sgraph.ConnectedComponents(sub.G)
	forest := &Forest{Components: len(comps)}
	for ci, comp := range comps {
		trees, err := referenceExtractComponent(snap, sub, comp, ci, cfg)
		if err != nil {
			return nil, err
		}
		forest.Trees = append(forest.Trees, trees...)
	}
	return forest, nil
}

// dropNegative removes negative links from an induced subgraph, keeping
// its Orig mapping (the reference path never calls Local on the result).
func dropNegative(sub *sgraph.Subgraph) *sgraph.Subgraph {
	b := sgraph.NewBuilder(sub.G.NumNodes())
	sub.G.Edges(func(e sgraph.Edge) {
		if e.Sign == sgraph.Positive {
			b.AddEdge(e.From, e.To, e.Sign, e.Weight)
		}
	})
	return &sgraph.Subgraph{G: b.MustBuild(), Orig: sub.Orig}
}

// referenceExtractComponent is the old extractComponent: component members
// are sub-local IDs, membership is a hash map, and every tree allocates its
// nine attribute slices individually.
func referenceExtractComponent(snap *Snapshot, sub *sgraph.Subgraph, comp []int, compIdx int, cfg Config) ([]*Tree, error) {
	pos := make(map[int]int32, len(comp))
	for i, v := range comp {
		pos[v] = int32(i)
	}
	stateOf := func(ci int) sgraph.State { return snap.States[sub.Orig[comp[ci]]] }

	var edges []arbor.Edge
	var cands []cand
	for i, v := range comp {
		sub.G.Out(v, func(e sgraph.Edge) {
			j, ok := pos[e.To]
			if !ok {
				return
			}
			if !snap.timeAdmissible(sub.Orig[comp[i]], sub.Orig[comp[j]]) {
				return
			}
			score := cfg.Score(e.Sign, e.Weight, stateOf(i), stateOf(int(j)))
			edges = append(edges, arbor.Edge{From: i, To: int(j), Weight: math.Log(score)})
			cands = append(cands, cand{sign: e.Sign, weight: e.Weight})
		})
	}
	slv := new(arbor.Solver)
	parents, _, err := slv.MaxForest(len(comp), edges, cfg.RootScore)
	if err != nil {
		return nil, fmt.Errorf("cascade: component %d: %w", compIdx, err)
	}

	childIdx := make([][]int32, len(comp))
	var roots []int
	for i := range comp {
		if parents[i] == -1 {
			roots = append(roots, i)
			continue
		}
		p := edges[parents[i]].From
		childIdx[p] = append(childIdx[p], int32(i))
	}
	localOf := make([]int32, len(comp))
	trees := make([]*Tree, 0, len(roots))
	scoreCfg := cfg
	scoreCfg.Parallelism = 0
	for _, r := range roots {
		order := []int32{int32(r)}
		for head := 0; head < len(order); head++ {
			ci := order[head]
			localOf[ci] = int32(head)
			order = append(order, childIdx[ci]...)
		}
		n := len(order)
		t := &Tree{
			Component: compIdx,
			Orig:      make([]int, n),
			Parent:    make([]int32, n),
			Children:  make([][]int32, n),
			Sign:      make([]sgraph.Sign, n),
			Weight:    make([]float64, n),
			Score:     make([]float64, n),
			State:     make([]sgraph.State, n),
			Observed:  make([]sgraph.State, n),
			Dummy:     make([]bool, n),
		}
		for local, ci := range order {
			var parentLocal int32 = -1
			var sign sgraph.Sign
			var weight, score float64 = 0, 1
			if pe := parents[ci]; pe != -1 {
				parentLocal = localOf[edges[pe].From]
				sign = cands[pe].sign
				weight = cands[pe].weight
				score = cfg.Score(sign, weight, stateOf(int(edges[pe].From)), stateOf(int(ci)))
			}
			t.Orig[local] = sub.Orig[comp[ci]]
			t.Parent[local] = parentLocal
			t.Sign[local] = sign
			t.Weight[local] = weight
			t.Score[local] = score
			t.State[local] = stateOf(int(ci))
			t.Observed[local] = stateOf(int(ci))
			if kids := childIdx[ci]; len(kids) > 0 {
				locals := make([]int32, len(kids))
				for x, ch := range kids {
					locals[x] = localOf[ch]
				}
				t.Children[local] = locals
			}
		}
		imputeStates(t)
		rescore(t, cfg)
		t.ScoreCfg = scoreCfg
		trees = append(trees, t)
	}
	return trees, nil
}
