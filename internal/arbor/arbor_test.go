package arbor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// bruteArborescence enumerates every in-edge assignment to find the true
// maximum arborescence weight rooted at root, or -Inf if none exists.
func bruteArborescence(n int, edges []Edge, root int) float64 {
	// candidate in-edges per node
	cands := make([][]int, n)
	for i, e := range edges {
		if e.From == e.To || e.To == root || e.From < 0 || e.From >= n {
			continue
		}
		cands[e.To] = append(cands[e.To], i)
	}
	best := math.Inf(-1)
	pick := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == root {
			rec(v + 1)
			return
		}
		if v == n {
			// validate: every non-root node reaches root
			total := 0.0
			for u := 0; u < n; u++ {
				if u == root {
					continue
				}
				total += edges[pick[u]].Weight
			}
			// acyclicity: walk up from each node
			for u := 0; u < n; u++ {
				steps := 0
				w := u
				for w != root {
					w = edges[pick[w]].From
					steps++
					if steps > n {
						return // cycle
					}
				}
			}
			if total > best {
				best = total
			}
			return
		}
		for _, ci := range cands[v] {
			pick[v] = ci
			rec(v + 1)
		}
	}
	// If any non-root node lacks candidates there is no arborescence.
	for v := 0; v < n; v++ {
		if v != root && len(cands[v]) == 0 {
			return math.Inf(-1)
		}
	}
	rec(0)
	return best
}

func TestMaxArborescenceSimple(t *testing.T) {
	// Diamond: 0 -> 1 (5), 0 -> 2 (3), 1 -> 2 (4), 2 -> 1 (4), 1 -> 3 (2), 2 -> 3 (6)
	edges := []Edge{
		{0, 1, 5}, {0, 2, 3}, {1, 2, 4}, {2, 1, 4}, {1, 3, 2}, {2, 3, 6},
	}
	chosen, total, err := new(Solver).MaxArborescence(4, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Best: 0->1 (5), 1->2 (4), 2->3 (6) = 15.
	if total != 15 {
		t.Errorf("total = %g, want 15", total)
	}
	if chosen[0] != -1 {
		t.Errorf("chosen[root] = %d, want -1", chosen[0])
	}
	for v := 1; v < 4; v++ {
		if chosen[v] < 0 {
			t.Errorf("node %d has no chosen edge", v)
		}
	}
}

func TestMaxArborescenceCycleContraction(t *testing.T) {
	// Greedy picks form the 1<->2 cycle; the optimum must break it.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 10}, {2, 1, 10}, {0, 2, 1},
	}
	_, total, err := new(Solver).MaxArborescence(3, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Either 0->1->2 (11) or 0->2->1 (11).
	if total != 11 {
		t.Errorf("total = %g, want 11", total)
	}
}

func TestMaxArborescenceNestedCycles(t *testing.T) {
	// Two interlocking cycles to force repeated contraction.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 8}, {2, 3, 8}, {3, 1, 8},
		{2, 4, 5}, {4, 2, 9}, {3, 4, 1},
	}
	want := bruteArborescence(5, edges, 0)
	for _, k := range kernels {
		chosen, total, err := k.new().MaxArborescence(5, edges, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(total-want) > 1e-9 {
			t.Errorf("%s: total = %g, want %g", k.name, total, want)
		}
		validateArborescence(t, 5, edges, chosen, 0)
	}
}

func validateArborescence(t *testing.T, n int, edges []Edge, chosen []int, root int) {
	t.Helper()
	for v := 0; v < n; v++ {
		if v == root {
			if chosen[v] != -1 {
				t.Errorf("root has in-edge %d", chosen[v])
			}
			continue
		}
		if chosen[v] < 0 {
			t.Errorf("node %d lacks in-edge", v)
			continue
		}
		if edges[chosen[v]].To != v {
			t.Errorf("chosen[%d] targets %d", v, edges[chosen[v]].To)
		}
		// walk to root
		u, steps := v, 0
		for u != root {
			u = edges[chosen[u]].From
			steps++
			if steps > n {
				t.Fatalf("cycle reaching root from %d", v)
			}
		}
	}
}

func TestMaxArborescenceUnreachable(t *testing.T) {
	edges := []Edge{{0, 1, 1}} // node 2 unreachable
	for _, k := range kernels {
		_, _, err := k.new().MaxArborescence(3, edges, 0)
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("%s: err = %v, want ErrUnreachable", k.name, err)
		}
	}
}

func TestMaxArborescenceBadInput(t *testing.T) {
	for _, k := range kernels {
		if _, _, err := k.new().MaxArborescence(3, nil, 5); err == nil {
			t.Errorf("%s: root out of range should error", k.name)
		}
		if _, _, err := k.new().MaxArborescence(2, []Edge{{0, 7, 1}}, 0); err == nil {
			t.Errorf("%s: edge out of range should error", k.name)
		}
	}
}

func TestMaxArborescenceIgnoresSelfLoopsAndRootEdges(t *testing.T) {
	edges := []Edge{
		{1, 1, 100}, // self loop
		{1, 0, 100}, // into root
		{0, 1, 2},
	}
	chosen, total, err := new(Solver).MaxArborescence(2, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || chosen[1] != 2 {
		t.Errorf("total = %g chosen = %v, want 2 via edge 2", total, chosen)
	}
}

func TestMaxArborescenceMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(5) // 2..6 nodes
		m := rng.Intn(3 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			// Negative weights too: log-space callers rely on them.
			edges = append(edges, Edge{u, v, rng.Range(-5, 5)})
		}
		want := bruteArborescence(n, edges, 0)
		for _, k := range kernels {
			chosen, got, err := k.new().MaxArborescence(n, edges, 0)
			if math.IsInf(want, -1) {
				if !errors.Is(err, ErrUnreachable) {
					return false
				}
				continue
			}
			if err != nil || math.Abs(got-want) >= 1e-9 {
				return false
			}
			validateArborescence(t, n, edges, chosen, 0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxForest(t *testing.T) {
	// Two disconnected chains; forest must open exactly two roots.
	edges := []Edge{
		{0, 1, 2}, {1, 2, 3},
		{3, 4, 4},
	}
	parents, total, err := new(Solver).MaxForest(5, edges, -1000)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for v, p := range parents {
		if p == -1 {
			roots++
		} else if edges[p].To != v {
			t.Errorf("parents[%d] edge targets %d", v, edges[p].To)
		}
	}
	if roots != 2 {
		t.Errorf("roots = %d, want 2", roots)
	}
	if total != 9 {
		t.Errorf("total = %g, want 9", total)
	}
	if parents[0] != -1 || parents[3] != -1 {
		t.Errorf("wrong roots: %v", parents)
	}
}

func TestMaxForestEmpty(t *testing.T) {
	parents, total, err := new(Solver).MaxForest(0, nil, -1)
	if err != nil || parents != nil || total != 0 {
		t.Errorf("empty forest = %v %g %v", parents, total, err)
	}
}

func TestMaxForestRootScoreTradeoff(t *testing.T) {
	// A single negative-weight in-edge: with mild root penalty the node
	// prefers to become a root; with harsh penalty it takes the edge.
	edges := []Edge{{0, 1, -5}}
	parents, _, err := new(Solver).MaxForest(2, edges, -1)
	if err != nil {
		t.Fatal(err)
	}
	if parents[1] != -1 {
		t.Errorf("mild penalty: parents[1] = %d, want root", parents[1])
	}
	parents, _, err = new(Solver).MaxForest(2, edges, -100)
	if err != nil {
		t.Fatal(err)
	}
	if parents[1] != 0 {
		t.Errorf("harsh penalty: parents[1] = %d, want edge 0", parents[1])
	}
}

func TestMaxForestEveryNodeCovered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(8)
		m := rng.Intn(3 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{u, v, rng.Range(0, 1)})
			}
		}
		parents, _, err := new(Solver).MaxForest(n, edges, -1e6)
		if err != nil {
			return false
		}
		// acyclic and rooted
		for v := range parents {
			u, steps := v, 0
			for parents[u] != -1 {
				u = edges[parents[u]].From
				steps++
				if steps > n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGreedyInEdge(t *testing.T) {
	edges := []Edge{
		{0, 1, 1}, {2, 1, 5}, {1, 2, 3}, {2, 2, 9},
	}
	best := GreedyInEdge(3, edges)
	if best[0] != -1 {
		t.Errorf("best[0] = %d, want -1", best[0])
	}
	if best[1] != 1 {
		t.Errorf("best[1] = %d, want 1 (weight 5)", best[1])
	}
	if best[2] != 2 {
		t.Errorf("best[2] = %d, want 2 (self loop ignored)", best[2])
	}
}
