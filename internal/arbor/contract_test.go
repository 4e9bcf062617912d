package arbor

import "fmt"

// This file holds the test oracle for the production Tarjan kernel
// (tarjan.go): the paper's contraction loop, and Algorithm 2 on its own.

// cedge is a working edge of one contraction level.
type cedge struct {
	from, to int32
	w        float64
}

// level records what the expansion pass needs from one contracted round:
// the picks and cycle structure of the round itself, plus where the edges
// of the round it built start in the provenance arenas.
type level struct {
	n, root int32
	// nodeOff is the offset of this level's per-node entries in the best
	// and nodeCycle arenas.
	nodeOff int32
	// cycOff / cycCount delimit this level's cycles in the cycleStart
	// arena.
	cycOff, cycCount int32
	// childEdgeOff is the offset of the NEXT level's per-edge entries in
	// the src and realTo arenas (next-level edges are created while this
	// level contracts).
	childEdgeOff int32
}

// contract is the level-by-level Chu-Liu/Edmonds kernel, the paper's
// Algorithms 2–3 verbatim: every round each node picks its maximum in-edge
// (Algorithm 2), cycles are contracted with the exact weight adjustment of
// Algorithm 3 (w' = w(u,v) − w(π(v),v)), and the loop repeats on the
// contracted graph until the picks are acyclic, re-scanning every
// surviving edge per level (O(n m) worst case). It is the differential
// oracle for the production Solver: simple to audit, and its provenance
// arenas grow with levels × edges, so keep its inputs small. The zero
// value is ready to use; buffers are retained across solves.
type contract struct {
	cedges [2][]cedge // ping-pong edge buffers (current / next level)
	origOf []int32    // filtered level-0 edge -> caller edge index

	// Arenas retained across levels for the expansion pass.
	best       []int32 // per level, per node: best in-edge pick
	nodeCycle  []int32 // per level, per node: cycle ordinal or -1
	src        []int32 // per level >= 1, per edge: parent-level edge index
	realTo     []int32 // per level >= 1, per edge: real target node in parent
	cycleNodes []int32 // concatenated cycle member lists
	cycleStart []int32 // per cycle: offset of its members in cycleNodes
	levels     []level

	// Per-level scratch, overwritten each round.
	id        []int32 // node -> contracted component id
	mark      []int32
	enteredAt []int32
	sel, sel2 []int32    // expansion-pass selection buffers
	morig     [2][]int32 // ping-pong: per node, smallest original id inside it
	aug       []Edge     // MaxForest's edge list plus virtual-root edges

	// Work counts accumulated over every solve.
	stats struct{ edgesStaged, cyclesContracted, levels, edgeRescans int64 }
}

// MaxArborescence has the contract of Solver.MaxArborescence.
func (ws *contract) MaxArborescence(n int, edges []Edge, root int) (chosen []int, total float64, err error) {
	if root < 0 || root >= n {
		return nil, 0, fmt.Errorf("arbor: root %d out of range [0,%d)", root, n)
	}
	if cap(ws.cedges[0]) < len(edges) {
		ws.cedges[0] = make([]cedge, 0, len(edges))
	}
	work := ws.cedges[0][:0]
	origOf := reserveInt32(ws.origOf, len(edges))
	for i, e := range edges {
		if e.From == e.To || e.To == root {
			continue
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			ws.cedges[0], ws.origOf = work, origOf
			return nil, 0, fmt.Errorf("arbor: edge %d endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		work = append(work, cedge{from: int32(e.From), to: int32(e.To), w: e.Weight})
		origOf = append(origOf, int32(i))
	}
	ws.cedges[0], ws.origOf = work, origOf
	ws.stats.edgesStaged += int64(len(work))
	sel, err := ws.solve(n, len(work), root)
	if err != nil {
		return nil, 0, err
	}
	chosen = make([]int, n)
	for v := range chosen {
		chosen[v] = -1
	}
	for _, wi := range sel {
		oi := int(ws.origOf[wi])
		chosen[edges[oi].To] = oi
	}
	// Sum in node order, as the Solver does, so equal chosen-edge sets
	// produce bit-identical totals across kernels.
	for v := 0; v < n; v++ {
		if chosen[v] >= 0 {
			total += edges[chosen[v]].Weight
		}
	}
	return chosen, total, nil
}

// MaxForest has the contract of Solver.MaxForest, reduced to
// MaxArborescence with a virtual root the same way.
func (ws *contract) MaxForest(n int, edges []Edge, rootScore float64) (parents []int, total float64, err error) {
	if n == 0 {
		return nil, 0, nil
	}
	aug := append(ws.aug[:0], edges...)
	for v := 0; v < n; v++ {
		aug = append(aug, Edge{From: n, To: v, Weight: rootScore})
	}
	ws.aug = aug
	chosen, _, err := ws.MaxArborescence(n+1, aug, n)
	if err != nil {
		return nil, 0, err
	}
	parents = make([]int, n)
	for v := range parents {
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

// solve runs the iterative contract-and-expand loop over the level-0 edges
// already staged in ws.cedges[0], returning indices into that edge list.
func (ws *contract) solve(n0, m0, root0 int) ([]int32, error) {
	// Reserve the arenas from the level-0 dimensions. The totals can far
	// exceed n0/m0 — each level that resolves only a small cycle shrinks
	// n and m barely, so a deep contraction stacks many near-full levels —
	// which is why growth past this point goes through ensureInt32's
	// doubling rather than plain append.
	ws.best = reserveInt32(ws.best, n0)
	ws.nodeCycle = reserveInt32(ws.nodeCycle, n0)
	ws.src = reserveInt32(ws.src, m0)
	ws.realTo = reserveInt32(ws.realTo, m0)
	if cap(ws.cedges[1]) < m0 {
		ws.cedges[1] = make([]cedge, 0, m0)
	}
	ws.cycleNodes = ws.cycleNodes[:0]
	ws.cycleStart = ws.cycleStart[:0]
	ws.levels = ws.levels[:0]
	ws.id = growInt32(ws.id, n0)
	ws.mark = growInt32(ws.mark, n0)
	// morig tracks, per current-level node, the smallest original (level-0)
	// node id contracted into it, so unreachability detected deep in the
	// contraction stack can still be reported against a caller-visible id.
	ws.morig[0] = growInt32(ws.morig[0], n0)
	for v := 0; v < n0; v++ {
		ws.morig[0][v] = int32(v)
	}
	curMo := 0

	const (
		unseen = -1
		inPath = -2
	)
	cur := 0 // which ping-pong buffer holds the current level's edges
	n, m, root := n0, m0, root0
	for {
		edges := ws.cedges[cur][:m]
		ws.stats.levels++
		ws.stats.edgeRescans += int64(m)

		// Algorithm 2 (MWSG): every node picks its maximum-weight in-edge.
		// Strict > keeps the first-seen maximum, so ties resolve to the
		// lowest edge index deterministically.
		nodeOff := len(ws.best)
		ws.best = appendFill(ws.best, n, -1)
		best := ws.best[nodeOff:]
		for i := range edges {
			e := &edges[i]
			if best[e.to] == -1 || e.w > edges[best[e.to]].w {
				best[e.to] = int32(i)
			}
		}
		for v := 0; v < n; v++ {
			if v != root && best[v] == -1 {
				return nil, fmt.Errorf("%w: node %d has no in-edge", ErrUnreachable, ws.morig[curMo][v])
			}
		}

		// Detect cycles among the picks.
		id, mark := ws.id[:n], ws.mark[:n]
		for v := range id {
			id[v] = unseen
			mark[v] = unseen
		}
		comps := int32(0)
		cycOff := len(ws.cycleStart)
		for v := 0; v < n; v++ {
			if mark[v] != unseen {
				continue
			}
			// Walk the pick chain from v until we hit the root, a
			// previously classified node, or our own path (a new cycle).
			u := v
			for u != root && mark[u] == unseen {
				mark[u] = inPath
				u = int(edges[best[u]].from)
			}
			if u != root && mark[u] == inPath {
				// Found a new cycle through u.
				ws.cycleStart = append(ws.cycleStart, int32(len(ws.cycleNodes)))
				ws.cycleNodes = append(ws.cycleNodes, int32(u))
				id[u] = comps
				for w := int(edges[best[u]].from); w != u; w = int(edges[best[w]].from) {
					id[w] = comps
					ws.cycleNodes = append(ws.cycleNodes, int32(w))
				}
				comps++
			}
			// Everything else on the path gets its own component.
			u = v
			for u != root && mark[u] == inPath {
				mark[u] = 1
				if id[u] == unseen {
					id[u] = comps
					comps++
				}
				u = int(edges[best[u]].from)
			}
		}
		if id[root] == unseen {
			id[root] = comps
			comps++
		}
		for v := 0; v < n; v++ {
			if id[v] == unseen {
				id[v] = comps
				comps++
			}
		}
		cycCount := len(ws.cycleStart) - cycOff
		ws.stats.cyclesContracted += int64(cycCount)

		if cycCount == 0 {
			// Acyclic: the picks are the arborescence of this level. Seed
			// the expansion selection and unwind.
			sel := ws.sel[:0]
			for v := 0; v < n; v++ {
				if v != root {
					sel = append(sel, best[v])
				}
			}
			ws.sel = sel
			break
		}

		// nodeCycle: cycle ordinal (level-local) per node, -1 outside.
		ws.nodeCycle = appendFill(ws.nodeCycle, n, -1)
		nodeCycle := ws.nodeCycle[nodeOff:]
		for c := 0; c < cycCount; c++ {
			start := ws.cycleStart[cycOff+c]
			end := int32(len(ws.cycleNodes))
			if cycOff+c+1 < len(ws.cycleStart) {
				end = ws.cycleStart[cycOff+c+1]
			}
			for _, v := range ws.cycleNodes[start:end] {
				nodeCycle[v] = int32(c)
			}
		}

		ws.levels = append(ws.levels, level{
			n: int32(n), root: int32(root),
			nodeOff: int32(nodeOff),
			cycOff:  int32(cycOff), cycCount: int32(cycCount),
			childEdgeOff: int32(len(ws.src)),
		})

		// Algorithm 3 (Contract Circles): rebuild the edge list on
		// component ids; edges entering a cycle node v are re-weighted by
		// subtracting the weight of v's in-cycle pick, w(π(v), v). src and
		// realTo remember each surviving edge's provenance for expansion.
		nxt := ws.cedges[1-cur][:0]
		// At most m edges survive contraction; reserving up front keeps the
		// provenance arenas on the doubling growth path.
		ws.src = ensureInt32(ws.src, m)
		ws.realTo = ensureInt32(ws.realTo, m)
		for i := range edges {
			e := &edges[i]
			nf, nt := id[e.from], id[e.to]
			if nf == nt {
				continue
			}
			w := e.w
			if nodeCycle[e.to] >= 0 {
				w -= edges[best[e.to]].w
			}
			nxt = append(nxt, cedge{from: nf, to: nt, w: w})
			ws.src = append(ws.src, int32(i))
			ws.realTo = append(ws.realTo, e.to)
		}
		ws.cedges[1-cur] = nxt
		// Fold the original-id minima into the contracted components.
		nmo := growInt32(ws.morig[1-curMo], int(comps))
		for i := range nmo[:comps] {
			nmo[i] = int32(n0) // larger than any original id
		}
		for v := 0; v < n; v++ {
			if mo := ws.morig[curMo][v]; mo < nmo[id[v]] {
				nmo[id[v]] = mo
			}
		}
		ws.morig[1-curMo] = nmo
		curMo = 1 - curMo
		n, m, root = int(comps), len(nxt), int(id[root])
		cur = 1 - cur
	}
	// Expansion, deepest contracted level first: map the selection through
	// each level's edge provenance, then keep every in-cycle pick except
	// the one into the node the solution enters the cycle at.
	sel, sel2 := ws.sel, ws.sel2
	for li := len(ws.levels) - 1; li >= 0; li-- {
		lv := ws.levels[li]
		best := ws.best[lv.nodeOff : lv.nodeOff+lv.n]
		nodeCycle := ws.nodeCycle[lv.nodeOff : lv.nodeOff+lv.n]
		src := ws.src[lv.childEdgeOff:]
		realTo := ws.realTo[lv.childEdgeOff:]
		ws.enteredAt = appendFill(ws.enteredAt[:0], int(lv.cycCount), -1)
		sel2 = sel2[:0]
		for _, si := range sel {
			sel2 = append(sel2, src[si])
			t := realTo[si]
			if c := nodeCycle[t]; c >= 0 {
				ws.enteredAt[c] = t
			}
		}
		for c := int32(0); c < lv.cycCount; c++ {
			start := ws.cycleStart[lv.cycOff+c]
			end := int32(len(ws.cycleNodes))
			if int(lv.cycOff+c)+1 < len(ws.cycleStart) {
				end = ws.cycleStart[lv.cycOff+c+1]
			}
			entered := ws.enteredAt[c]
			for _, v := range ws.cycleNodes[start:end] {
				if v == entered {
					continue
				}
				sel2 = append(sel2, best[v])
			}
		}
		sel, sel2 = sel2, sel
	}
	ws.sel, ws.sel2 = sel, sel2
	return sel, nil
}

// appendFill appends count copies of v to s, growing through ensureInt32
// so arena ramp-up stays geometric.
func appendFill(s []int32, count int, v int32) []int32 {
	s = ensureInt32(s, count)
	for i := 0; i < count; i++ {
		s = append(s, v)
	}
	return s
}

// ensureInt32 returns s with spare capacity for at least extra more
// elements, at least doubling the backing array when it must grow. Plain
// append grows large slices by only ~1.25x, which multiplies the total
// bytes allocated while an arena ramps up over many contraction levels.
func ensureInt32(s []int32, extra int) []int32 {
	if cap(s)-len(s) >= extra {
		return s
	}
	c := 2 * cap(s)
	if c < len(s)+extra {
		c = len(s) + extra
	}
	grown := make([]int32, len(s), c)
	copy(grown, s)
	return grown
}

// GreedyInEdge implements Algorithm 2 (MWSG) in isolation: every node
// independently picks its maximum-weight in-edge. The result may contain
// cycles; the full extraction resolves them via contraction. Returns the
// index of the picked in-edge per node (-1 where a node has no in-edges).
func GreedyInEdge(n int, edges []Edge) []int {
	best := make([]int, n)
	for v := range best {
		best[v] = -1
	}
	for i, e := range edges {
		if e.From == e.To {
			continue
		}
		if best[e.To] == -1 || e.Weight > edges[best[e.To]].Weight {
			best[e.To] = i
		}
	}
	return best
}
