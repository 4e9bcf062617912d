package arbor

import (
	"fmt"
	"math"
)

// This file is the package's one arborescence kernel: Tarjan's O(m log n)
// maximum-arborescence algorithm (Tarjan 1977, with the path-growing
// refinement of Gabow, Galil, Spencer & Tarjan 1986). Every super-vertex
// keeps its candidate in-edges in a mergeable skew heap whose weights are
// adjusted lazily with additive offsets, cycle contraction is a weighted
// union-find merge of the member heaps, and the chosen edge set is
// reconstructed by path expansion over the contraction forest. Each of
// the m candidate edges enters a heap once and is popped at most once,
// for O(m log n) total work; the paper's level-by-level contraction loop,
// which re-scans every surviving edge per level, is its test oracle
// (contract_test.go).

// tedge is a staged (filtered) candidate edge in level-0 coordinates.
type tedge struct {
	from, to int32
	w        float64
}

// hnode is one skew-heap node. The arena holds exactly one node per staged
// edge; heaps are threaded through l/r indices into the arena. key is the
// edge's current offset-adjusted weight assuming every ancestor's pending
// lazy delta has been pushed down; lazy is the delta still owed to the
// node's descendants.
type hnode struct {
	l, r int32
	edge int32
	key  float64
	lazy float64
}

// Forest-node visit states of the contraction phase.
const (
	tUnvisited int8 = iota
	tOnPath
	tDone
)

// stage filters the caller's edge list: self-loops and edges into the
// root are dropped, out-of-range endpoints are an error, and origOf
// remembers each survivor's caller index.
func (s *Solver) stage(n int, edges []Edge, root int) error {
	if cap(s.edges) < len(edges) {
		s.edges = make([]tedge, 0, len(edges))
	}
	staged := s.edges[:0]
	origOf := reserveInt32(s.origOf, len(edges))
	for i, e := range edges {
		if e.From == e.To || e.To == root {
			continue
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			s.edges, s.origOf = staged, origOf
			return fmt.Errorf("arbor: edge %d endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		staged = append(staged, tedge{from: int32(e.From), to: int32(e.To), w: e.Weight})
		origOf = append(origOf, int32(i))
	}
	s.edges, s.origOf = staged, origOf
	s.work.EdgesStaged += int64(len(staged))
	return nil
}

// solve runs contraction and expansion over the staged edges, returning
// the selected staged-edge indices (one in-edge per non-root node).
func (s *Solver) solve(n, root int) ([]int32, error) {
	m := len(s.edges)
	nfMax := 2*n + 1 // n originals + at most n contractions

	// Arena and forest state. Entries for contracted nodes are written at
	// creation time, so only the original-node prefix needs initializing.
	if cap(s.hnodes) < m {
		s.hnodes = make([]hnode, m)
	}
	s.hnodes = s.hnodes[:m]
	s.heapOf = growInt32(s.heapOf, nfMax)
	s.inEdge = growInt32(s.inEdge, nfMax)
	s.inKey = growF64(s.inKey, nfMax)
	s.parentF = growInt32(s.parentF, nfMax)
	s.minOrig = growInt32(s.minOrig, nfMax)
	s.state = growInt8(s.state, nfMax)
	s.dsuP = growInt32(s.dsuP, n)
	s.dsuSz = growInt32(s.dsuSz, n)
	s.topOf = growInt32(s.topOf, n)
	for v := 0; v < n; v++ {
		s.heapOf[v] = -1
		s.parentF[v] = -1
		s.minOrig[v] = int32(v)
		s.state[v] = tUnvisited
		s.dsuP[v] = int32(v)
		s.dsuSz[v] = 1
		s.topOf[v] = int32(v)
	}
	s.state[root] = tDone
	s.members = s.members[:0]
	s.memOff = append(s.memOff[:0], 0)

	// One heap node per staged edge, melded into its target's heap in edge
	// order (ties inside a heap keep the earlier-melded edge on top, so the
	// whole kernel is deterministic).
	for i := range s.edges {
		s.hnodes[i] = hnode{l: -1, r: -1, edge: int32(i), key: s.edges[i].w}
	}
	for i := range s.edges {
		to := s.edges[i].to
		s.heapOf[to] = s.meld(s.heapOf[to], int32(i))
	}

	// Contraction: grow a path of super-vertices, each picking its best
	// in-edge; a pick into the path contracts the cycle, a pick into a done
	// vertex (or the root) retires the whole path.
	nf := int32(n)
	path := s.path[:0]
	for v0 := 0; v0 < n; v0++ {
		start := s.topOf[s.find(int32(v0))]
		if s.state[start] != tUnvisited {
			continue
		}
		cur := start
		for {
			s.state[cur] = tOnPath
			path = append(path, cur)
			ei, key, ok := s.popValid(cur)
			if !ok {
				s.path = path[:0]
				return nil, fmt.Errorf("%w: node %d has no in-edge", ErrUnreachable, s.minOrig[cur])
			}
			s.inEdge[cur], s.inKey[cur] = ei, key
			u := s.topOf[s.find(s.edges[ei].from)]
			if s.state[u] == tDone {
				for _, p := range path {
					s.state[p] = tDone
				}
				path = path[:0]
				break
			}
			if s.state[u] == tUnvisited {
				cur = u
				continue
			}
			// u lies on the path: contract the cycle u..cur into a new
			// super-vertex. Each member's remaining in-edges are discounted
			// by the weight of its in-cycle pick (the lazy offset), then the
			// heaps are melded.
			c := nf
			nf++
			s.work.CyclesContracted++
			h := int32(-1)
			mo := int32(math.MaxInt32)
			rep := int32(-1)
			for {
				v := path[len(path)-1]
				path = path[:len(path)-1]
				s.members = append(s.members, v)
				s.parentF[v] = c
				if hv := s.heapOf[v]; hv >= 0 {
					nh := &s.hnodes[hv]
					nh.key -= s.inKey[v]
					nh.lazy -= s.inKey[v]
					h = s.meld(h, hv)
				}
				if s.minOrig[v] < mo {
					mo = s.minOrig[v]
				}
				if rep < 0 {
					rep = s.minOrig[v]
				} else {
					rep = s.union(rep, s.minOrig[v])
				}
				if v == u {
					break
				}
			}
			s.memOff = append(s.memOff, int32(len(s.members)))
			s.heapOf[c] = h
			s.parentF[c] = -1
			s.minOrig[c] = mo
			s.state[c] = tUnvisited
			s.topOf[s.find(rep)] = c
			cur = c
		}
	}

	// Expansion: every top-level super-vertex is entered by its chosen
	// edge; dissolving the super-vertices on the walk from the edge's real
	// target up to the entered node keeps all other members' cycle picks,
	// which enter the stack in turn.
	sel := s.sel[:0]
	stack := path[:0]
	for x := int32(0); x < nf; x++ {
		if s.parentF[x] == -1 && int(x) != root {
			stack = append(stack, x)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e := s.inEdge[c]
		sel = append(sel, e)
		for u := s.edges[e].to; u != c; {
			p := s.parentF[u]
			k := p - int32(n)
			for _, mm := range s.members[s.memOff[k]:s.memOff[k+1]] {
				if mm != u {
					stack = append(stack, mm)
				}
			}
			u = p
		}
	}
	s.path = stack[:0]
	s.sel = sel
	return sel, nil
}

// popValid removes and returns the maximum in-edge of forest node cur
// whose source lies outside cur, discarding internal edges along the way.
// ok is false when cur has no external in-edge left.
func (s *Solver) popValid(cur int32) (edge int32, key float64, ok bool) {
	h := s.heapOf[cur]
	rep := s.find(s.minOrig[cur])
	for h >= 0 {
		nh := &s.hnodes[h]
		e, k := nh.edge, nh.key
		h = s.pop(h)
		if s.find(s.edges[e].from) == rep {
			continue // source was contracted into cur: discard
		}
		s.heapOf[cur] = h
		return e, k, true
	}
	s.heapOf[cur] = -1
	return -1, 0, false
}

// meld merges two skew heaps (max at the root) and returns the new root.
// Equal keys keep the left (earlier) argument on top, which makes heap
// order — and with it the whole kernel — deterministic.
func (s *Solver) meld(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	s.work.HeapMelds++
	if s.hnodes[a].key < s.hnodes[b].key {
		a, b = b, a
	}
	s.pushdown(a)
	na := &s.hnodes[a]
	na.r = s.meld(na.r, b)
	na.l, na.r = na.r, na.l
	return a
}

// pop removes the root of heap x and returns the new root.
func (s *Solver) pop(x int32) int32 {
	s.work.HeapPops++
	s.pushdown(x)
	return s.meld(s.hnodes[x].l, s.hnodes[x].r)
}

// pushdown propagates x's pending lazy offset to its children.
func (s *Solver) pushdown(x int32) {
	nx := &s.hnodes[x]
	if nx.lazy == 0 {
		return
	}
	d := nx.lazy
	nx.lazy = 0
	if l := nx.l; l >= 0 {
		s.hnodes[l].key += d
		s.hnodes[l].lazy += d
	}
	if r := nx.r; r >= 0 {
		s.hnodes[r].key += d
		s.hnodes[r].lazy += d
	}
}

// find is union-find lookup with path halving.
func (s *Solver) find(v int32) int32 {
	for s.dsuP[v] != v {
		s.dsuP[v] = s.dsuP[s.dsuP[v]]
		v = s.dsuP[v]
	}
	return v
}

// union links the sets of a and b by size and returns the new root.
func (s *Solver) union(a, b int32) int32 {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return ra
	}
	if s.dsuSz[ra] < s.dsuSz[rb] {
		ra, rb = rb, ra
	}
	s.dsuP[rb] = ra
	s.dsuSz[ra] += s.dsuSz[rb]
	return ra
}

// growF64 returns s with capacity (and length) at least n.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInt8 returns s with capacity (and length) at least n.
func growInt8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

// growInt32 returns s with capacity (and length) at least n.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// reserveInt32 returns s emptied, with capacity at least c.
func reserveInt32(s []int32, c int) []int32 {
	if cap(s) < c {
		return make([]int32, 0, c)
	}
	return s[:0]
}
