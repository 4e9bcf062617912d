package arbor

import (
	"fmt"

	"repro/internal/obs"
)

// Algorithm selects the arborescence kernel a Solver runs.
type Algorithm int

const (
	// Tarjan is the O(m log n) kernel (tarjan.go): mergeable skew heaps
	// with lazy additive offsets select in-edges, a weighted union-find
	// contracts cycles, and path expansion reconstructs the chosen edges.
	// The default, and what production extraction uses.
	Tarjan Algorithm = iota
	// Contract is the reference level-by-level Chu-Liu/Edmonds contraction
	// loop (arbor.go). O(n m) worst case — each contraction level rescans
	// every surviving edge — but simple to audit; the differential tests
	// hold the two kernels equal on random graphs.
	Contract
)

// String names the algorithm for logs and bench labels.
func (a Algorithm) String() string {
	switch a {
	case Tarjan:
		return "tarjan"
	case Contract:
		return "contract"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a Solver.
type Options struct {
	// Algorithm selects the kernel; the zero value is Tarjan.
	Algorithm Algorithm
}

// kernelStats counts one solve's kernel work. Both kernels fill the
// subset of fields that applies to them; the Solver folds the struct into
// its counter sink after each solve. Plain field increments keep the
// instrumentation cheap enough to stay always-on.
type kernelStats struct {
	edgesStaged      int64 // candidate edges surviving the input filter
	heapMelds        int64 // skew-heap meld steps (Tarjan, incl. recursion)
	heapPops         int64 // skew-heap pops (Tarjan)
	cyclesContracted int64 // super-vertices created / cycles resolved
	levels           int64 // contraction rounds (Contract, incl. final acyclic one)
	edgeRescans      int64 // edges re-scanned across rounds (Contract)
}

// Solver computes maximum-weight spanning arborescences and forests. It
// owns the selected kernel's workspace — staging buffers, heap or
// contraction arenas, the virtual-root augmentation of MaxForest — so
// repeated solves on one Solver allocate only the returned slices. A
// Solver is not safe for concurrent use; parallel extraction holds one
// per worker.
type Solver struct {
	alg Algorithm
	tj  *tarjan
	ws  *workspace
	aug []Edge
	cs  *obs.CounterSet
}

// New returns a Solver running the kernel selected by opts. It panics on
// an Algorithm value outside the defined enum — a programming error, like
// an invalid sync.Pool New.
func New(opts Options) *Solver {
	s := &Solver{alg: opts.Algorithm}
	switch opts.Algorithm {
	case Tarjan:
		s.tj = &tarjan{}
	case Contract:
		s.ws = &workspace{}
	default:
		panic(fmt.Sprintf("arbor: unknown algorithm %d", int(opts.Algorithm)))
	}
	return s
}

// Algorithm reports which kernel this solver runs.
func (s *Solver) Algorithm() Algorithm { return s.alg }

// SetCounters directs the solver's algorithm-depth counters at cs —
// typically a worker Accum's batch (obs.Accum.CS). Nil detaches; pooled
// Solvers must detach on release so a recycled Solver never writes a
// stale request's counters. Counting into the kernel's stats struct is
// always on; cs only controls where (and whether) the totals land.
func (s *Solver) SetCounters(cs *obs.CounterSet) { s.cs = cs }

// fold moves the kernel's per-solve stats into the counter sink.
func (s *Solver) fold(st *kernelStats) {
	if s.cs == nil {
		return
	}
	a := &s.cs.Arbor
	if s.alg == Contract {
		a.ContractSolves++
	} else {
		a.TarjanSolves++
	}
	a.EdgesStaged += st.edgesStaged
	a.HeapMelds += st.heapMelds
	a.HeapPops += st.heapPops
	a.CyclesContracted += st.cyclesContracted
	a.ContractLevels += st.levels
	a.EdgeRescans += st.edgeRescans
}

// MaxArborescence computes the maximum-weight spanning arborescence of
// the n-node graph rooted at root: every node except root ends up with
// exactly one in-edge, the edge set is acyclic, and the total weight is
// maximal. It returns the index (into edges) of the chosen in-edge per
// node, with chosen[root] = -1, plus the total weight. Self-loops and
// edges into the root are ignored. If a node has no path from the root
// the result wraps ErrUnreachable and names an unreachable node by its
// original (pre-contraction) id.
//
// Both kernels resolve weight ties deterministically and sum the total in
// node order, so a repeated solve — serial or inside a parallel fan-out —
// is bit-identical.
func (s *Solver) MaxArborescence(n int, edges []Edge, root int) (chosen []int, total float64, err error) {
	if s.alg == Contract {
		s.ws.stats = kernelStats{}
		chosen, total, err = s.ws.maxArborescence(n, edges, root)
		s.fold(&s.ws.stats)
		return chosen, total, err
	}
	s.tj.stats = kernelStats{}
	chosen, total, err = s.tj.maxArborescence(n, edges, root)
	s.fold(&s.tj.stats)
	return chosen, total, err
}

// MaxForest computes a maximum-weight spanning forest: every node either
// selects one in-edge or becomes a tree root, where being a root costs
// rootScore (typically a large negative log-prior, so the solver opens as
// few roots as possible and only where no better in-edge exists).
// Internally this is MaxArborescence with a virtual root node connected
// to every node with weight rootScore.
//
// It returns parents[v] = the index (into edges) of v's chosen in-edge,
// or -1 if v is a tree root, and the total weight of the chosen real
// edges (virtual-edge scores excluded).
func (s *Solver) MaxForest(n int, edges []Edge, rootScore float64) (parents []int, total float64, err error) {
	if n == 0 {
		return nil, 0, nil
	}
	if cap(s.aug) < len(edges)+n {
		s.aug = make([]Edge, 0, len(edges)+n)
	}
	aug := append(s.aug[:0], edges...)
	virtual := n
	for v := 0; v < n; v++ {
		aug = append(aug, Edge{From: virtual, To: v, Weight: rootScore})
	}
	s.aug = aug
	chosen, _, err := s.MaxArborescence(n+1, aug, virtual)
	if err != nil {
		return nil, 0, err
	}
	parents = make([]int, n)
	for v := 0; v < n; v++ {
		ei := chosen[v]
		if ei >= len(edges) {
			parents[v] = -1 // virtual edge: v is a root
			continue
		}
		parents[v] = ei
		total += edges[ei].Weight
	}
	return parents, total, nil
}
