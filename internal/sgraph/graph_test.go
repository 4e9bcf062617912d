package sgraph

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.Sign, e.Weight)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		u, v    int
		sign    Sign
		w       float64
		wantErr error
	}{
		{"node out of range", 3, 0, 3, Positive, 0.5, ErrNodeRange},
		{"negative node", 3, -1, 0, Positive, 0.5, ErrNodeRange},
		{"self loop", 3, 1, 1, Positive, 0.5, ErrSelfLoop},
		{"zero sign", 3, 0, 1, 0, 0.5, ErrBadSign},
		{"sign two", 3, 0, 1, 2, 0.5, ErrBadSign},
		{"weight below", 3, 0, 1, Positive, -0.1, ErrBadWeight},
		{"weight above", 3, 0, 1, Positive, 1.1, ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(tt.n)
			b.AddEdge(tt.u, tt.v, tt.sign, tt.w)
			if _, err := b.Build(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Build err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuilderDuplicateEdge(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, Positive, 0.5)
	b.AddEdge(0, 1, Negative, 0.2)
	if _, err := b.Build(); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("Build err = %v, want ErrDuplicateEdge", err)
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5, Positive, 0.5) // invalid
	b.AddEdge(0, 1, Positive, 0.5) // valid, but builder already failed
	if _, err := b.Build(); err == nil {
		t.Fatal("Build: want error after invalid add")
	}
}

func TestGraphAdjacency(t *testing.T) {
	g := mustGraph(t, 4, []Edge{
		{From: 0, To: 2, Sign: Positive, Weight: 0.3},
		{From: 0, To: 1, Sign: Negative, Weight: 0.7},
		{From: 2, To: 0, Sign: Positive, Weight: 0.1},
		{From: 3, To: 0, Sign: Negative, Weight: 0.9},
	})
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(0); got != 2 {
		t.Errorf("InDegree(0) = %d, want 2", got)
	}
	// Out iterates in ascending target order.
	var targets []int
	g.Out(0, func(e Edge) { targets = append(targets, e.To) })
	if len(targets) != 2 || targets[0] != 1 || targets[1] != 2 {
		t.Errorf("Out(0) targets = %v, want [1 2]", targets)
	}
	var sources []int
	g.In(0, func(e Edge) { sources = append(sources, e.From) })
	if len(sources) != 2 || sources[0] != 2 || sources[1] != 3 {
		t.Errorf("In(0) sources = %v, want [2 3]", sources)
	}
}

func TestHasEdge(t *testing.T) {
	g := mustGraph(t, 5, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.3},
		{From: 0, To: 3, Sign: Negative, Weight: 0.5},
		{From: 0, To: 4, Sign: Positive, Weight: 0.8},
		{From: 2, To: 1, Sign: Negative, Weight: 0.2},
	})
	if e, ok := g.HasEdge(0, 3); !ok || e.Sign != Negative || e.Weight != 0.5 {
		t.Errorf("HasEdge(0,3) = %+v, %v; want negative 0.5 edge", e, ok)
	}
	if _, ok := g.HasEdge(0, 2); ok {
		t.Error("HasEdge(0,2) = true, want false")
	}
	if _, ok := g.HasEdge(1, 0); ok {
		t.Error("HasEdge(1,0) = true, want false (directed)")
	}
	if _, ok := g.HasEdge(4, 0); ok {
		t.Error("HasEdge(4,0) = true, want false (no out-edges)")
	}
}

func TestReverse(t *testing.T) {
	g := mustGraph(t, 3, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.3},
		{From: 1, To: 2, Sign: Negative, Weight: 0.7},
	})
	r := g.Reverse()
	if e, ok := r.HasEdge(1, 0); !ok || e.Sign != Positive || e.Weight != 0.3 {
		t.Errorf("Reverse missing edge (1,0): %+v %v", e, ok)
	}
	if e, ok := r.HasEdge(2, 1); !ok || e.Sign != Negative || e.Weight != 0.7 {
		t.Errorf("Reverse missing edge (2,1): %+v %v", e, ok)
	}
	if _, ok := r.HasEdge(0, 1); ok {
		t.Error("Reverse kept original edge (0,1)")
	}
}

// randomGraph builds a pseudo-random signed graph for property tests.
func randomGraph(seed uint64, n, m int) *Graph {
	rng := xrand.New(seed)
	b := NewBuilder(n)
	seen := make(map[[2]int]bool, m)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{u, v}] {
			added++ // avoid livelock on dense requests
			continue
		}
		seen[[2]int{u, v}] = true
		sig := Positive
		if rng.Bool(0.25) {
			sig = Negative
		}
		b.AddEdge(u, v, sig, rng.Float64())
		added++
	}
	return b.MustBuild()
}

func TestReverseTwiceIsIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 30, 80)
		rr := g.Reverse().Reverse()
		if rr.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(e Edge) {
			got, found := rr.HasEdge(e.From, e.To)
			if !found || got.Sign != e.Sign || got.Weight != e.Weight {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g := mustGraph(t, 4, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.2},
		{From: 0, To: 2, Sign: Positive, Weight: 0.4},
		{From: 1, To: 2, Sign: Negative, Weight: 0.6},
		{From: 3, To: 2, Sign: Positive, Weight: 0.8},
	})
	st := g.Stats()
	if st.Nodes != 4 || st.Edges != 4 {
		t.Errorf("Stats nodes/edges = %d/%d, want 4/4", st.Nodes, st.Edges)
	}
	if st.PositiveEdges != 3 || st.NegativeEdges != 1 {
		t.Errorf("Stats +/- = %d/%d, want 3/1", st.PositiveEdges, st.NegativeEdges)
	}
	if st.PositiveRatio != 0.75 {
		t.Errorf("PositiveRatio = %g, want 0.75", st.PositiveRatio)
	}
	if st.MaxOutDegree != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", st.MaxOutDegree)
	}
	if st.MaxInDegree != 3 {
		t.Errorf("MaxInDegree = %d, want 3", st.MaxInDegree)
	}
	if got, want := st.MeanWeight, 0.5; got != want {
		t.Errorf("MeanWeight = %g, want %g", got, want)
	}
}

func TestDegreePercentiles(t *testing.T) {
	// Node 0 has out-degree 3, node 1 has 1, the rest 0.
	g := mustGraph(t, 10, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.5},
		{From: 0, To: 2, Sign: Positive, Weight: 0.5},
		{From: 0, To: 3, Sign: Positive, Weight: 0.5},
		{From: 1, To: 2, Sign: Positive, Weight: 0.5},
	})
	p50, p90, p99, max := g.DegreePercentiles()
	if p50 != 0 || max != 3 {
		t.Errorf("p50/max = %d/%d, want 0/3", p50, max)
	}
	// Sorted degrees: [0 x8, 1, 3]; with n=10 the p90 and p99 indexes
	// both land on the 9th entry.
	if p90 != 1 || p99 != 1 {
		t.Errorf("p90/p99 = %d/%d, want 1/1", p90, p99)
	}
	empty := NewBuilder(0).MustBuild()
	if a, b, c, d := empty.DegreePercentiles(); a+b+c+d != 0 {
		t.Error("empty graph percentiles not zero")
	}
}

func TestEmptyGraphStats(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	st := g.Stats()
	if st.Nodes != 0 || st.Edges != 0 || st.PositiveRatio != 0 {
		t.Errorf("empty Stats = %+v", st)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} (connected via directed edges, ignoring
	// direction) and {3,4}. Node 5 is isolated.
	g := mustGraph(t, 6, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.5},
		{From: 2, To: 1, Sign: Negative, Weight: 0.5},
		{From: 4, To: 3, Sign: Positive, Weight: 0.5},
	})
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Errorf("component %d = %v, want %v", i, comps[i], want[i])
				break
			}
		}
	}
}

func TestConnectedComponentsPartition(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 50, 60)
		comps := ConnectedComponents(g)
		seen := make(map[int]bool)
		total := 0
		for _, c := range comps {
			total += len(c)
			for _, u := range c {
				if seen[u] {
					return false // node in two components
				}
				seen[u] = true
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInduce(t *testing.T) {
	g := mustGraph(t, 5, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.1},
		{From: 1, To: 2, Sign: Negative, Weight: 0.2},
		{From: 2, To: 3, Sign: Positive, Weight: 0.3},
		{From: 3, To: 4, Sign: Positive, Weight: 0.4},
	})
	sub := Induce(g, []int{1, 2, 3})
	if sub.G.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d, want 3", sub.G.NumNodes())
	}
	if sub.G.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.G.NumEdges())
	}
	// Local IDs follow input order: 1->0, 2->1, 3->2.
	if e, ok := sub.G.HasEdge(0, 1); !ok || e.Sign != Negative || e.Weight != 0.2 {
		t.Errorf("induced edge (0,1) = %+v %v, want negative 0.2", e, ok)
	}
	if e, ok := sub.G.HasEdge(1, 2); !ok || e.Sign != Positive || e.Weight != 0.3 {
		t.Errorf("induced edge (1,2) = %+v %v, want positive 0.3", e, ok)
	}
	if l, ok := sub.Local(3); !ok || l != 2 {
		t.Errorf("Local(3) = %d %v, want 2 true", l, ok)
	}
	if _, ok := sub.Local(0); ok {
		t.Error("Local(0) should be absent")
	}
	if sub.Orig[1] != 2 {
		t.Errorf("Orig[1] = %d, want 2", sub.Orig[1])
	}
}

func TestJaccard(t *testing.T) {
	// v=0 follows {1,2,3}; u=4 has followers {2,3,5}.
	// Γout(0) = {1,2,3}, Γin(4) = {2,3,5}: inter = 2, union = 4 -> 0.5.
	g := mustGraph(t, 6, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.5},
		{From: 0, To: 2, Sign: Positive, Weight: 0.5},
		{From: 0, To: 3, Sign: Positive, Weight: 0.5},
		{From: 2, To: 4, Sign: Positive, Weight: 0.5},
		{From: 3, To: 4, Sign: Negative, Weight: 0.5},
		{From: 5, To: 4, Sign: Positive, Weight: 0.5},
	})
	if got := Jaccard(g, 0, 4); got != 0.5 {
		t.Errorf("Jaccard(0,4) = %g, want 0.5", got)
	}
	// Node 1 has no out links and node 0 has no in links: union empty.
	if got := Jaccard(g, 1, 0); got != 0 {
		t.Errorf("Jaccard(1,0) = %g, want 0", got)
	}
}

func TestWeightByJaccard(t *testing.T) {
	g := randomGraph(7, 40, 120)
	rng := xrand.New(11)
	wg := WeightByJaccard(g, 0.1, rng)
	if wg.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", wg.NumEdges(), g.NumEdges())
	}
	zeroFallbacks := 0
	wg.Edges(func(e Edge) {
		if e.Weight < 0 || e.Weight > 1 {
			t.Errorf("weight out of range: %+v", e)
		}
		orig, ok := g.HasEdge(e.From, e.To)
		if !ok || orig.Sign != e.Sign {
			t.Errorf("topology or sign changed on (%d,%d)", e.From, e.To)
		}
		jc := Jaccard(g, e.From, e.To)
		if jc > 0 {
			if e.Weight != jc && jc <= 1 {
				t.Errorf("weight(%d,%d) = %g, want JC %g", e.From, e.To, e.Weight, jc)
			}
		} else {
			if e.Weight >= 0.1 {
				t.Errorf("fallback weight %g >= 0.1", e.Weight)
			}
			zeroFallbacks++
		}
	})
	if zeroFallbacks == 0 {
		t.Error("expected some zero-JC fallback weights in a sparse random graph")
	}
}

func TestJaccardRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 25, 70)
		ok := true
		g.Edges(func(e Edge) {
			jc := Jaccard(g, e.From, e.To)
			if jc < 0 || jc > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStateHelpers(t *testing.T) {
	if !StatePositive.Active() || !StateNegative.Active() {
		t.Error("active states reported inactive")
	}
	if StateInactive.Active() || StateUnknown.Active() {
		t.Error("inactive/unknown reported active")
	}
	if StatePositive.Sign() != Positive || StateNegative.Sign() != Negative {
		t.Error("Sign conversion wrong")
	}
	tests := []struct {
		src  State
		sig  Sign
		want State
	}{
		{StatePositive, Positive, StatePositive},
		{StatePositive, Negative, StateNegative},
		{StateNegative, Positive, StateNegative},
		{StateNegative, Negative, StatePositive},
	}
	for _, tt := range tests {
		if got := StateOf(tt.src, tt.sig); got != tt.want {
			t.Errorf("StateOf(%v,%v) = %v, want %v", tt.src, tt.sig, got, tt.want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	pairs := map[State]string{
		StatePositive: "+1",
		StateNegative: "-1",
		StateInactive: "0",
		StateUnknown:  "?",
	}
	for s, want := range pairs {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if Positive.String() != "+" || Negative.String() != "-" {
		t.Error("Sign.String wrong")
	}
}

func TestStateOfPanicsOnInactive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("StateOf(inactive) did not panic")
		}
	}()
	StateOf(StateInactive, Positive)
}

func TestCommonNeighborsAndAdamicAdar(t *testing.T) {
	// v=0 follows {1,2}; u=3 has followers {1,2,4}: two common neighbors.
	g := mustGraph(t, 5, []Edge{
		{From: 0, To: 1, Sign: Positive, Weight: 0.5},
		{From: 0, To: 2, Sign: Positive, Weight: 0.5},
		{From: 1, To: 3, Sign: Positive, Weight: 0.5},
		{From: 2, To: 3, Sign: Positive, Weight: 0.5},
		{From: 4, To: 3, Sign: Positive, Weight: 0.5},
	})
	idx := newNeighborIndex(g)
	invLogDeg := idx.invLogDegrees()
	if got := idx.common(0, 3); got != 2 {
		t.Errorf("common = %d, want 2", got)
	}
	// Node 1 and 2 each have degree 2 -> AA = 2/log(2).
	want := 2 / math.Log(2)
	if got := idx.adamicAdar(invLogDeg, 0, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("adamicAdar = %g, want %g", got, want)
	}
	if got := idx.common(4, 0); got != 0 {
		t.Errorf("no-overlap common = %d", got)
	}
	if got := idx.adamicAdar(invLogDeg, 4, 0); got != 0 {
		t.Errorf("no-overlap adamicAdar = %g", got)
	}
}

func TestWeightBySchemes(t *testing.T) {
	g := randomGraph(13, 60, 240)
	for _, scheme := range []WeightScheme{SchemeJaccard, SchemeAdamicAdar, SchemeCommonNeighbors} {
		wg := WeightBy(g, scheme, 0.1, xrand.New(5))
		if wg.NumEdges() != g.NumEdges() {
			t.Fatalf("scheme %d changed edge count", scheme)
		}
		maxW := 0.0
		wg.Edges(func(e Edge) {
			if e.Weight < 0 || e.Weight > 1 {
				t.Errorf("scheme %d weight %g out of range", scheme, e.Weight)
			}
			if e.Weight > maxW {
				maxW = e.Weight
			}
			orig, ok := g.HasEdge(e.From, e.To)
			if !ok || orig.Sign != e.Sign {
				t.Errorf("scheme %d changed topology/sign", scheme)
			}
		})
		if maxW == 0 {
			t.Errorf("scheme %d produced all-zero weights", scheme)
		}
	}
}
