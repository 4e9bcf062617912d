package arbor

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// kernel is the solve surface the production Solver and the contract
// oracle share.
type kernel interface {
	MaxArborescence(n int, edges []Edge, root int) ([]int, float64, error)
	MaxForest(n int, edges []Edge, rootScore float64) ([]int, float64, error)
}

// kernels under differential test, each with a constructor for a fresh
// instance.
var kernels = []struct {
	name string
	new  func() kernel
}{
	{"tarjan", func() kernel { return new(Solver) }},
	{"contract", func() kernel { return new(contract) }},
}

// randInstance builds a random digraph stressing every edge case the
// kernels must agree on: multi-edges (parallel candidates with distinct
// weights), self-loops, edges into the root, negative-weight candidates,
// and — because nothing guarantees connectivity — instances whose root
// cannot reach every node, where both kernels must fail identically.
// Weights are dyadic (multiples of 1/4 in [-8, 8]) so every addition and
// subtraction either kernel performs is exact in float64 and total
// weights must match bit-for-bit, not just within a tolerance.
func randInstance(rng *xrand.Rand) (n int, edges []Edge, root int) {
	n = 2 + rng.Intn(24)
	m := rng.Intn(4 * n)
	edges = make([]Edge, 0, 2*m)
	dyadic := func() float64 { return float64(rng.Intn(65)-32) * 0.25 }
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		edges = append(edges, Edge{From: u, To: v, Weight: dyadic()})
		if rng.Bool(0.2) {
			// Parallel multi-edge with an independent weight.
			edges = append(edges, Edge{From: u, To: v, Weight: dyadic()})
		}
	}
	return n, edges, rng.Intn(n)
}

// checkKernelsAgree asserts the differential invariant on one instance:
// either both kernels report unreachability, or both return a valid
// arborescence (rooted, acyclic, one in-edge per non-root node) of
// bit-identical total weight.
func checkKernelsAgree(n int, edges []Edge, root int) error {
	chosenT, totalT, errT := new(Solver).MaxArborescence(n, edges, root)
	chosenC, totalC, errC := new(contract).MaxArborescence(n, edges, root)
	if (errT != nil) != (errC != nil) {
		return fmt.Errorf("kernel disagreement: tarjan err=%v, contract err=%v", errT, errC)
	}
	if errT != nil {
		if !errors.Is(errT, ErrUnreachable) || !errors.Is(errC, ErrUnreachable) {
			return fmt.Errorf("non-unreachable errors: tarjan %v, contract %v", errT, errC)
		}
		return nil
	}
	if totalT != totalC {
		return fmt.Errorf("total weight mismatch: tarjan %v, contract %v", totalT, totalC)
	}
	for name, chosen := range map[string][]int{"tarjan": chosenT, "contract": chosenC} {
		if err := validArborescence(n, edges, chosen, root); err != nil {
			return fmt.Errorf("%s kernel: %w", name, err)
		}
	}
	// MaxForest must agree too: its virtual-root reduction never fails, so
	// the invariant is equality of totals plus validity of both forests.
	// -1024 is dyadic, keeping the arithmetic exact.
	parT, ftotT, errT := new(Solver).MaxForest(n, edges, -1024)
	parC, ftotC, errC := new(contract).MaxForest(n, edges, -1024)
	if errT != nil || errC != nil {
		return fmt.Errorf("forest errors: tarjan %v, contract %v", errT, errC)
	}
	if ftotT != ftotC {
		return fmt.Errorf("forest total mismatch: tarjan %v, contract %v", ftotT, ftotC)
	}
	for name, parents := range map[string][]int{"tarjan": parT, "contract": parC} {
		if err := validForest(n, edges, parents); err != nil {
			return fmt.Errorf("%s kernel forest: %w", name, err)
		}
	}
	return nil
}

// validArborescence checks structure: chosen[root] = -1, every other node
// has exactly one in-edge targeting it, and every walk up reaches root.
func validArborescence(n int, edges []Edge, chosen []int, root int) error {
	if len(chosen) != n {
		return fmt.Errorf("chosen has length %d, want %d", len(chosen), n)
	}
	for v := 0; v < n; v++ {
		if v == root {
			if chosen[v] != -1 {
				return fmt.Errorf("root %d has in-edge %d", v, chosen[v])
			}
			continue
		}
		if chosen[v] < 0 || chosen[v] >= len(edges) {
			return fmt.Errorf("node %d in-edge index %d out of range", v, chosen[v])
		}
		if edges[chosen[v]].To != v {
			return fmt.Errorf("node %d assigned edge targeting %d", v, edges[chosen[v]].To)
		}
		u, steps := v, 0
		for u != root {
			u = edges[chosen[u]].From
			if steps++; steps > n {
				return fmt.Errorf("cycle walking from node %d", v)
			}
		}
	}
	return nil
}

// validForest checks that parents describes a forest: each non-root node's
// edge targets it and every walk up terminates at some tree root.
func validForest(n int, edges []Edge, parents []int) error {
	if len(parents) != n {
		return fmt.Errorf("parents has length %d, want %d", len(parents), n)
	}
	for v := 0; v < n; v++ {
		if parents[v] == -1 {
			continue
		}
		if edges[parents[v]].To != v {
			return fmt.Errorf("node %d assigned edge targeting %d", v, edges[parents[v]].To)
		}
		u, steps := v, 0
		for parents[u] != -1 {
			u = edges[parents[u]].From
			if steps++; steps > n {
				return fmt.Errorf("cycle walking from node %d", v)
			}
		}
	}
	return nil
}

// TestKernelsAgree is the differential property test between the Tarjan
// and Contract kernels over random signed digraphs.
func TestKernelsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges, root := randInstance(xrand.New(seed))
		if err := checkKernelsAgree(n, edges, root); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKernelsAgreeContinuousWeights relaxes the exactness requirement:
// with arbitrary float weights the Tarjan kernel's lazy offsets round
// differently from the contraction kernel's per-level subtraction, so
// totals are compared within a tolerance while structure stays strict.
func TestKernelsAgreeContinuousWeights(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(16)
		m := rng.Intn(4 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n), Weight: rng.Range(-5, 5)})
		}
		root := rng.Intn(n)
		_, totalT, errT := new(Solver).MaxArborescence(n, edges, root)
		_, totalC, errC := new(contract).MaxArborescence(n, edges, root)
		if (errT != nil) != (errC != nil) {
			return false
		}
		if errT != nil {
			return errors.Is(errT, ErrUnreachable) && errors.Is(errC, ErrUnreachable)
		}
		return math.Abs(totalT-totalC) <= 1e-9*(1+math.Abs(totalC))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzKernelEquivalence drives the same differential invariant from the
// fuzzer: the corpus seeds an xrand stream, so every interesting input the
// fuzzer finds is a reproducible graph instance.
func FuzzKernelEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 32, math.MaxUint64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		n, edges, root := randInstance(xrand.New(seed))
		if err := checkKernelsAgree(n, edges, root); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// TestSolverReuse solves back-to-back instances of different shapes on one
// instance per kernel: arena reuse must never leak state between solves.
func TestSolverReuse(t *testing.T) {
	for _, k := range kernels {
		s := k.new()
		rng := xrand.New(99)
		for i := 0; i < 50; i++ {
			n, edges, root := randInstance(rng)
			chosen, total, err := s.MaxArborescence(n, edges, root)
			chosen2, total2, err2 := k.new().MaxArborescence(n, edges, root)
			if (err != nil) != (err2 != nil) {
				t.Fatalf("%s: reused solver err %v, fresh solver err %v", k.name, err, err2)
			}
			if err != nil {
				continue
			}
			if total != total2 {
				t.Fatalf("%s: reused solver total %v, fresh %v", k.name, total, total2)
			}
			for v := range chosen {
				if chosen[v] != chosen2[v] {
					t.Fatalf("%s: reused solver chose %d for node %d, fresh chose %d", k.name, chosen[v], v, chosen2[v])
				}
			}
		}
	}
}

// TestUnreachableReportsOriginalNode pins the error contract of both
// kernels: when unreachability is only detectable after contraction (a
// cycle with no in-edge from the root side), the message must name an
// original node id, not a contracted index.
func TestUnreachableReportsOriginalNode(t *testing.T) {
	// Nodes 1 and 2 form a two-cycle; node 0 (the root) has no edge into
	// it. Each kernel first contracts {1, 2} and only then discovers the
	// contracted vertex has no external in-edge.
	edges := []Edge{{From: 1, To: 2, Weight: 5}, {From: 2, To: 1, Weight: 5}}
	for _, k := range kernels {
		_, _, err := k.new().MaxArborescence(3, edges, 0)
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("%s: err = %v, want ErrUnreachable", k.name, err)
		}
		if !strings.Contains(err.Error(), "node 1") {
			t.Errorf("%s: error %q does not name original node 1", k.name, err)
		}
		if strings.Contains(err.Error(), "node 0") || strings.Contains(err.Error(), "node 2") {
			t.Errorf("%s: error %q names a wrong node", k.name, err)
		}
	}
}

// BenchmarkArborKernels compares the production Tarjan kernel against the
// contract oracle on the log-weight forest workload cascade extraction
// feeds them. Each sub-bench reuses one instance, the way the extraction
// worker pool holds Solvers. The graph stays at 2,000 nodes: the oracle's
// arenas grow with levels × edges and exhaust memory at full scale.
func BenchmarkArborKernels(b *testing.B) {
	rng := xrand.New(31)
	g, err := gen.PreferentialAttachment(gen.Config{Nodes: 2000, Edges: 12000, PositiveRatio: 0.8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	logEdges := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e sgraph.Edge) {
		w := e.Weight
		if w < 1e-9 {
			w = 1e-9
		}
		logEdges = append(logEdges, Edge{From: e.From, To: e.To, Weight: math.Log(w)})
	})
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			s := k.new()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.MaxForest(g.NumNodes(), logEdges, -1e9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
