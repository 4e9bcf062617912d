// Package setcover holds the machinery of the paper's NP-hardness proof
// (Lemma 3.1) as test code: a greedy set-cover solver and the
// polynomial-time reduction from set cover to the exact ISOMIT problem,
// which builds the infected signed graph instance the proof describes. The
// directory has no non-test files, so nothing here is built into the
// program; `go test ./internal/setcover/` checks the construction.
package setcover

import (
	"fmt"
	"sort"

	"repro/internal/sgraph"
)

// Instance is a set-cover instance over elements 0..NumElements-1.
type Instance struct {
	NumElements int
	Subsets     [][]int
}

// Validate checks element ranges and coverage feasibility.
func (in Instance) Validate() error {
	if in.NumElements < 0 {
		return fmt.Errorf("setcover: negative element count")
	}
	covered := make([]bool, in.NumElements)
	for si, s := range in.Subsets {
		for _, e := range s {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("setcover: subset %d contains out-of-range element %d", si, e)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("setcover: element %d not covered by any subset", e)
		}
	}
	return nil
}

// Greedy returns the indices of subsets chosen by the classical ln(n)-
// approximate greedy algorithm: repeatedly take the subset covering the
// most uncovered elements (lowest index wins ties, for determinism).
func Greedy(in Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	uncovered := make(map[int]bool, in.NumElements)
	for e := 0; e < in.NumElements; e++ {
		uncovered[e] = true
	}
	var chosen []int
	for len(uncovered) > 0 {
		best, bestGain := -1, 0
		for si, s := range in.Subsets {
			gain := 0
			for _, e := range s {
				if uncovered[e] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("setcover: infeasible despite validation")
		}
		chosen = append(chosen, best)
		for _, e := range in.Subsets[best] {
			delete(uncovered, e)
		}
	}
	sort.Ints(chosen)
	return chosen, nil
}

// Reduction is the ISOMIT instance built from a set-cover instance per the
// proof of Lemma 3.1.
type Reduction struct {
	// G is the infected signed graph of the construction: one node per
	// element (IDs 0..n-1), one per subset (IDs n..n+m-1) and the dummy
	// node d (ID n+m). All links positive; weights per the proof.
	G *sgraph.Graph
	// States marks every node +1 ("all trust the rumor"), the target
	// snapshot of the reduction.
	States []sgraph.State
	// ElementNode, SubsetNode and Dummy map instance parts to node IDs.
	ElementNode []int
	SubsetNode  []int
	Dummy       int
}

// Reduce builds the graph of Lemma 3.1: for each element e_i in subset
// L_j, a link n_i -> n_{j+n} with weight 1; every element node links to
// the dummy with weight 1/n; the dummy links to every subset node with
// weight 1. Choosing subset nodes as rumor initiators then activates all
// element nodes they cover (weight-1 links are certain under MFC), and
// covering all elements maps onto covering the element nodes.
//
// Erratum (DESIGN.md §2b): as literally specified the construction admits
// a shortcut — seeding the dummy node alone reaches every node through
// weight-1 paths — so the minimum-initiator optimum does not equal minimum
// set cover without further constraining d. The constructor builds the
// paper's graph as written; tests exercise its structure and forward MFC
// behavior, not minimality.
func Reduce(in Instance) (*Reduction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n, m := in.NumElements, len(in.Subsets)
	total := n + m + 1
	b := sgraph.NewBuilder(total)
	red := &Reduction{
		ElementNode: make([]int, n),
		SubsetNode:  make([]int, m),
		Dummy:       n + m,
	}
	for i := 0; i < n; i++ {
		red.ElementNode[i] = i
	}
	for j := 0; j < m; j++ {
		red.SubsetNode[j] = n + j
	}
	for j, s := range in.Subsets {
		for _, e := range s {
			// The proof's link n_i -> n_{j+n}: in diffusion orientation the
			// subset node must be able to activate its elements, so we add
			// the diffusion link subset -> element with weight 1.
			b.AddEdge(red.SubsetNode[j], red.ElementNode[e], sgraph.Positive, 1)
		}
	}
	for i := 0; i < n; i++ {
		b.AddEdge(red.ElementNode[i], red.Dummy, sgraph.Positive, 1/float64(n))
	}
	for j := 0; j < m; j++ {
		b.AddEdge(red.Dummy, red.SubsetNode[j], sgraph.Positive, 1)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("setcover: %w", err)
	}
	red.G = g
	red.States = make([]sgraph.State, total)
	for i := range red.States {
		red.States[i] = sgraph.StatePositive
	}
	return red, nil
}

// CoverFromInitiators interprets a detected initiator set on the reduction
// graph back as a set-cover solution: the chosen subset nodes, plus — for
// any directly-seeded element or dummy node — nothing (they cover no
// elements). Returns the subset indices, ascending.
func (r *Reduction) CoverFromInitiators(initiators []int) []int {
	n := len(r.ElementNode)
	var cover []int
	for _, v := range initiators {
		if v >= n && v < n+len(r.SubsetNode) {
			cover = append(cover, v-n)
		}
	}
	sort.Ints(cover)
	return cover
}

// Covers reports whether the given subset indices cover every element.
func (in Instance) Covers(subsets []int) bool {
	covered := make([]bool, in.NumElements)
	for _, si := range subsets {
		if si < 0 || si >= len(in.Subsets) {
			return false
		}
		for _, e := range in.Subsets[si] {
			covered[e] = true
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	return true
}
