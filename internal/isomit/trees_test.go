package isomit

import (
	"fmt"
	"testing"

	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// TreeConfig are the knobs of RandomTree. Tree edges point parent -> child,
// i.e. they are already diffusion-oriented: information flows from the
// root downward, which is the orientation the ISOMIT solvers consume.
// Exported (from a _test.go file) so the external isomit_test package can
// build the same trees.
type TreeConfig struct {
	// Nodes is the number of nodes; must be positive. Node 0 is the root.
	Nodes int
	// MaxChildren bounds a node's fan-out; 0 means unbounded.
	MaxChildren int
	// PositiveRatio is the probability that an edge is positive.
	PositiveRatio float64
	// WeightLow/WeightHigh bound the uniform edge weights; zero values
	// default to [0.01, 0.3).
	WeightLow, WeightHigh float64
}

func (c TreeConfig) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("tree Nodes must be positive, got %d", c.Nodes)
	}
	if c.MaxChildren < 0 {
		return fmt.Errorf("MaxChildren must be non-negative, got %d", c.MaxChildren)
	}
	if c.PositiveRatio < 0 || c.PositiveRatio > 1 {
		return fmt.Errorf("PositiveRatio must be in [0,1], got %g", c.PositiveRatio)
	}
	return nil
}

// RandomTree attaches each node i >= 1 to a uniformly chosen earlier parent
// whose fan-out is still below MaxChildren, so node ids increase from the
// root in BFS-compatible order.
func RandomTree(cfg TreeConfig, rng *xrand.Rand) (*sgraph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lo, hi := cfg.WeightLow, cfg.WeightHigh
	if lo == 0 && hi == 0 {
		lo, hi = 0.01, 0.3
	}
	b := sgraph.NewBuilder(cfg.Nodes)
	childCount := make([]int, cfg.Nodes)
	// eligible lists nodes that can still accept children.
	eligible := make([]int, 1, cfg.Nodes)
	eligible[0] = 0
	for i := 1; i < cfg.Nodes; i++ {
		j := rng.Intn(len(eligible))
		p := eligible[j]
		sign := sgraph.Negative
		if rng.Bool(cfg.PositiveRatio) {
			sign = sgraph.Positive
		}
		b.AddEdge(p, i, sign, rng.Range(lo, hi))
		childCount[p]++
		if cfg.MaxChildren > 0 && childCount[p] >= cfg.MaxChildren {
			eligible[j] = eligible[len(eligible)-1]
			eligible = eligible[:len(eligible)-1]
		}
		eligible = append(eligible, i)
	}
	return b.Build()
}

func checkTree(t *testing.T, g *sgraph.Graph) {
	t.Helper()
	if g.NumEdges() != g.NumNodes()-1 {
		t.Fatalf("tree edges = %d, want n-1 = %d", g.NumEdges(), g.NumNodes()-1)
	}
	for v := 1; v < g.NumNodes(); v++ {
		if g.InDegree(v) != 1 {
			t.Errorf("node %d in-degree = %d, want 1", v, g.InDegree(v))
		}
	}
	if g.InDegree(0) != 0 {
		t.Errorf("root in-degree = %d, want 0", g.InDegree(0))
	}
	// Connectivity: every node reachable from the root.
	comps := sgraph.ConnectedComponents(g)
	if len(comps) != 1 {
		t.Errorf("tree has %d components, want 1", len(comps))
	}
}

func TestRandomTree(t *testing.T) {
	g, err := RandomTree(TreeConfig{Nodes: 200, MaxChildren: 3, PositiveRatio: 0.7}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, g)
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(u); d > 3 {
			t.Errorf("node %d has %d children, exceeds MaxChildren 3", u, d)
		}
	}
}

func TestRandomTreeUnboundedFanout(t *testing.T) {
	g, err := RandomTree(TreeConfig{Nodes: 50, PositiveRatio: 1}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, g)
	g.Edges(func(e sgraph.Edge) {
		if e.Sign != sgraph.Positive {
			t.Errorf("PositiveRatio=1 produced negative edge %+v", e)
		}
	})
}

func TestSingleNodeTrees(t *testing.T) {
	g, err := RandomTree(TreeConfig{Nodes: 1}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Errorf("single-node tree = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestTreeConfigValidate(t *testing.T) {
	if _, err := RandomTree(TreeConfig{Nodes: 0}, xrand.New(1)); err == nil {
		t.Error("want error for zero nodes")
	}
	if _, err := RandomTree(TreeConfig{Nodes: 5, MaxChildren: -1}, xrand.New(1)); err == nil {
		t.Error("want error for negative MaxChildren")
	}
	if _, err := RandomTree(TreeConfig{Nodes: 5, PositiveRatio: 2}, xrand.New(1)); err == nil {
		t.Error("want error for ratio > 1")
	}
}
