// Package arbor implements maximum-weight spanning arborescences and
// forests over directed graphs — the machinery behind the paper's
// Algorithms 2 (Maximum Weight Spanning Graph), 3 (Contract Circles) and
// 4 (Infected Cascade Trees Extraction).
//
// Weights are generic scores: higher is better and negative values are
// allowed, so callers maximizing a likelihood product Π w(u,v) pass log
// weights.
//
// The entry point is the Solver; its zero value is ready to use:
//
//	var s arbor.Solver
//	parents, total, err := s.MaxForest(n, edges, rootScore)
//
// A Solver owns all reusable scratch internally, so repeated solves on
// one Solver — forest extraction calls one per infected component —
// allocate only the returned slices. It runs Tarjan's O(m log n) kernel
// (tarjan.go): mergeable skew heaps with lazy additive offsets pick each
// node's best in-edge, a weighted union-find contracts cycles, and path
// expansion reconstructs the chosen edges. This computes the same
// Chu-Liu/Edmonds optimum as the paper's level-by-level contraction loop
// without re-scanning edges per level.
//
// That loop, Algorithms 2–3 verbatim, is kept only as a test oracle
// (contract_test.go): differential tests and a fuzz target hold the two
// to identical total weights and valid arborescences on random graphs.
// The kernel is deterministic, which is what keeps parallel extraction
// bit-identical to the serial path.
package arbor

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Edge is a directed scored edge for arborescence computation.
type Edge struct {
	From, To int
	Weight   float64
}

// ErrUnreachable reports that some node has no incoming path from the root.
var ErrUnreachable = errors.New("arbor: node unreachable from root")

// Solver computes maximum-weight spanning arborescences and forests. It
// owns the kernel's arenas (staging buffers, skew heaps, the contraction
// forest, the virtual-root augmentation of MaxForest), so repeated solves
// on one Solver allocate only the returned slices. The zero value is ready
// to use. A Solver is not safe for concurrent use; parallel extraction
// holds one per worker.
type Solver struct {
	edges  []tedge // staged candidate edges (self-loops and root in-edges dropped)
	origOf []int32 // staged edge -> caller edge index
	hnodes []hnode // skew-heap arena, one node per staged edge

	// Contraction forest, indexed by forest-node id: originals occupy
	// [0, n), contracted super-vertices are appended from n up (< 2n).
	heapOf  []int32   // root heap node of each forest node, -1 when empty
	inEdge  []int32   // chosen staged in-edge of each processed forest node
	inKey   []float64 // the chosen edge's offset-adjusted weight at selection time
	parentF []int32   // enclosing super-vertex, -1 at top level
	minOrig []int32   // smallest original node id inside the forest node
	state   []int8
	members []int32 // flattened member lists of contracted super-vertices
	memOff  []int32 // per super-vertex ordinal: offsets into members (+1 sentinel)

	// Weighted union-find over original node ids; topOf maps a set
	// representative to the current topmost forest node containing it.
	dsuP  []int32
	dsuSz []int32
	topOf []int32

	path []int32 // growth path (contraction), then dissolve stack (expansion)
	sel  []int32 // selected staged edges of the final arborescence
	aug  []Edge  // MaxForest's edge list plus virtual-root edges

	// work counts one solve's kernel work with plain field increments,
	// cheap enough to stay always-on; fold moves it into cs.
	work obs.ArborCounters
	cs   *obs.CounterSet
}

// SetCounters directs the solver's algorithm-depth counters at cs —
// typically a worker Accum's batch (obs.Accum.CS). Nil detaches; pooled
// Solvers must detach on release so a recycled Solver never writes a
// stale request's counters. Counting each solve's work is always on; cs
// only controls where (and whether) the totals land.
func (s *Solver) SetCounters(cs *obs.CounterSet) { s.cs = cs }

// fold moves one solve's work counts into the counter sink, if any, and
// resets them for the next solve.
func (s *Solver) fold() {
	w := s.work
	s.work = obs.ArborCounters{}
	if s.cs == nil {
		return
	}
	a := &s.cs.Arbor
	a.TarjanSolves++
	a.EdgesStaged += w.EdgesStaged
	a.HeapMelds += w.HeapMelds
	a.HeapPops += w.HeapPops
	a.CyclesContracted += w.CyclesContracted
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
// Weight ties resolve deterministically and the total is summed in node
// order, so a repeated solve — serial or inside a parallel fan-out — is
// bit-identical.
func (s *Solver) MaxArborescence(n int, edges []Edge, root int) ([]int, float64, error) {
	defer s.fold()
	if root < 0 || root >= n {
		return nil, 0, fmt.Errorf("arbor: root %d out of range [0,%d)", root, n)
	}
	if err := s.stage(n, edges, root); err != nil {
		return nil, 0, err
	}
	sel, err := s.solve(n, root)
	if err != nil {
		return nil, 0, err
	}
	chosen := make([]int, n)
	for v := range chosen {
		chosen[v] = -1
	}
	for _, fi := range sel {
		oi := int(s.origOf[fi])
		chosen[edges[oi].To] = oi
	}
	total := 0.0
	for v := 0; v < n; v++ {
		if chosen[v] >= 0 {
			total += edges[chosen[v]].Weight
		}
	}
	return chosen, total, nil
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
