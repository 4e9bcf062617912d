// Package sgraph implements the weighted signed directed graph substrate of
// the paper (Definitions 1–3): signed social networks, their reversed
// diffusion networks, induced infected subgraphs, undirected connected
// components, and the Jaccard-coefficient edge weighting used by the
// experimental setup.
//
// Graphs are stored in flat structure-of-arrays CSR form: parallel edge
// attribute arrays (from, to, sign, weight) plus per-node out-edge and
// in-edge index lists packed into two offset/list array pairs. The layout
// has no per-node slice headers or pointers, so a built graph can be
// persisted as an mmap-able snapshot and loaded back as aliased array views
// without re-indexing (see WriteSnapshot/LoadSnapshot). Node IDs are dense
// ints in [0, NumNodes).
package sgraph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sign is the polarity of a link or the belief state of a node: +1 or -1.
// The zero value is invalid for links; node states additionally use
// StateInactive and StateUnknown (see State).
type Sign int8

// Link polarities.
const (
	Positive Sign = +1
	Negative Sign = -1
)

// String returns "+" or "-" (or "0"/"?" for non-link values).
func (s Sign) String() string {
	switch s {
	case Positive:
		return "+"
	case Negative:
		return "-"
	default:
		return fmt.Sprintf("Sign(%d)", int8(s))
	}
}

// Edge is one directed signed weighted link u -> v.
type Edge struct {
	From, To int
	Sign     Sign
	Weight   float64
}

// Graph is an immutable weighted signed directed graph. Build one with a
// Builder. The zero value is an empty graph.
//
// Storage is flat CSR: edge attributes live in four parallel arrays indexed
// by a stable edge ID (insertion order), and the per-node adjacency is two
// offset/list pairs — outList[outStart[u]:outStart[u+1]] are the edge IDs of
// u's out-links sorted by target, inList likewise sorted by source. The
// arrays may alias a read-only memory-mapped snapshot (see LoadSnapshot);
// nothing mutates them after Build.
type Graph struct {
	n          int
	edgeFrom   []int32
	edgeTo     []int32
	edgeSign   []int8
	edgeWeight []float64
	// outStart has n+1 entries; outList[outStart[u]:outStart[u+1]] holds
	// edge IDs of u's out-links, sorted by To.
	outStart []int32
	outList  []int32
	// inStart/inList mirror outStart/outList for in-links, sorted by From.
	inStart []int32
	inList  []int32
	// snap retains the backing mmap (if any) so the mapping outlives every
	// aliased array view; see LoadSnapshot.
	snap *mapping
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed links.
func (g *Graph) NumEdges() int { return len(g.edgeTo) }

// edge materializes the i-th edge record from the flat arrays.
func (g *Graph) edge(i int32) Edge {
	return Edge{
		From:   int(g.edgeFrom[i]),
		To:     int(g.edgeTo[i]),
		Sign:   Sign(g.edgeSign[i]),
		Weight: g.edgeWeight[i],
	}
}

// Edge returns the i-th edge in insertion order. It panics if i is out of
// range.
func (g *Graph) Edge(i int) Edge { return g.edge(int32(i)) }

// Edges calls fn for every edge. Iteration order is insertion order.
func (g *Graph) Edges(fn func(Edge)) {
	for i := range g.edgeTo {
		fn(g.edge(int32(i)))
	}
}

// OutDegree returns the number of out-links of u.
func (g *Graph) OutDegree(u int) int { return int(g.outStart[u+1] - g.outStart[u]) }

// InDegree returns the number of in-links of v.
func (g *Graph) InDegree(v int) int { return int(g.inStart[v+1] - g.inStart[v]) }

// out returns the edge-ID list of u's out-links, sorted by target.
func (g *Graph) out(u int) []int32 { return g.outList[g.outStart[u]:g.outStart[u+1]] }

// in returns the edge-ID list of v's in-links, sorted by source.
func (g *Graph) in(v int) []int32 { return g.inList[g.inStart[v]:g.inStart[v+1]] }

// Out calls fn for each out-link of u, in ascending order of target ID.
func (g *Graph) Out(u int, fn func(Edge)) {
	for _, i := range g.out(u) {
		fn(g.edge(i))
	}
}

// OutIndexed calls fn for each out-link of u with the edge's stable index
// (as accepted by Edge), in ascending order of target ID. Simulators use
// the index to track per-edge state in dense arrays.
func (g *Graph) OutIndexed(u int, fn func(i int, e Edge)) {
	for _, i := range g.out(u) {
		fn(int(i), g.edge(i))
	}
}

// In calls fn for each in-link of v, in ascending order of source ID.
func (g *Graph) In(v int, fn func(Edge)) {
	for _, i := range g.in(v) {
		fn(g.edge(i))
	}
}

// HasEdge reports whether a link u -> v exists and returns it.
func (g *Graph) HasEdge(u, v int) (Edge, bool) {
	idx := g.out(u)
	// out lists are sorted by target; binary search.
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(g.edgeTo[idx[mid]]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && int(g.edgeTo[idx[lo]]) == v {
		return g.edge(idx[lo]), true
	}
	return Edge{}, false
}

// Reverse returns the diffusion network of g per Definition 2: every link
// (u, v) becomes (v, u) with the same sign and weight. Under the paper's
// trust-centric reading, a social link "u trusts v" becomes a diffusion link
// "information flows v -> u".
func (g *Graph) Reverse() *Graph {
	b := NewBuilder(g.n)
	for i := range g.edgeTo {
		b.AddEdge(int(g.edgeTo[i]), int(g.edgeFrom[i]), Sign(g.edgeSign[i]), g.edgeWeight[i])
	}
	rev, err := b.Build()
	if err != nil {
		// Reversing a valid graph cannot produce duplicate or invalid
		// edges; a failure here is a programming error.
		panic("sgraph: Reverse: " + err.Error())
	}
	return rev
}

// Stats summarizes a graph for reporting (Table II style).
type Stats struct {
	Nodes         int
	Edges         int
	PositiveEdges int
	NegativeEdges int
	PositiveRatio float64
	MaxOutDegree  int
	MaxInDegree   int
	MeanWeight    float64
}

// DegreePercentiles reports out-degree order statistics (p50, p90, p99 and
// the maximum), characterizing the heavy tail the generators must match.
func (g *Graph) DegreePercentiles() (p50, p90, p99, max int) {
	if g.n == 0 {
		return 0, 0, 0, 0
	}
	degs := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		degs[u] = g.OutDegree(u)
	}
	sort.Ints(degs)
	at := func(q float64) int { return degs[int(q*float64(g.n-1))] }
	return at(0.5), at(0.9), at(0.99), degs[g.n-1]
}

// Stats computes summary statistics of g.
func (g *Graph) Stats() Stats {
	st := Stats{Nodes: g.n, Edges: len(g.edgeTo)}
	var wsum float64
	for i := range g.edgeTo {
		if Sign(g.edgeSign[i]) == Positive {
			st.PositiveEdges++
		} else {
			st.NegativeEdges++
		}
		wsum += g.edgeWeight[i]
	}
	if st.Edges > 0 {
		st.PositiveRatio = float64(st.PositiveEdges) / float64(st.Edges)
		st.MeanWeight = wsum / float64(st.Edges)
	}
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(u); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
		if d := g.InDegree(u); d > st.MaxInDegree {
			st.MaxInDegree = d
		}
	}
	return st
}

// Errors returned by Builder.Build.
var (
	ErrNodeRange     = errors.New("sgraph: node ID out of range")
	ErrSelfLoop      = errors.New("sgraph: self-loop")
	ErrDuplicateEdge = errors.New("sgraph: duplicate edge")
	ErrBadSign       = errors.New("sgraph: sign must be +1 or -1")
	ErrBadWeight     = errors.New("sgraph: weight must be in [0, 1]")
	ErrTooLarge      = errors.New("sgraph: graph exceeds int32 node/edge capacity")
)

// Builder accumulates edges and produces an immutable Graph. The zero value
// is unusable; call NewBuilder.
type Builder struct {
	n     int
	edges []Edge
	err   error
}

// NewBuilder returns a builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow ensures the builder admits node IDs up to n-1.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records a directed signed link u -> v. Validation errors are
// deferred to Build so call sites can chain adds without per-call checks.
func (b *Builder) AddEdge(u, v int, sign Sign, weight float64) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		b.err = fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	case u == v:
		b.err = fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	case sign != Positive && sign != Negative:
		b.err = fmt.Errorf("%w: got %d on (%d,%d)", ErrBadSign, sign, u, v)
	case weight < 0 || weight > 1:
		b.err = fmt.Errorf("%w: got %g on (%d,%d)", ErrBadWeight, weight, u, v)
	default:
		b.edges = append(b.edges, Edge{From: u, To: v, Sign: sign, Weight: weight})
	}
}

// Len returns the number of edges recorded so far.
func (b *Builder) Len() int { return len(b.edges) }

// Build validates the accumulated edges and returns the immutable graph.
// Duplicate (u, v) pairs are rejected: the paper's model has at most one
// signed link per ordered pair.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.n > math.MaxInt32 || len(b.edges) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nodes, %d edges", ErrTooLarge, b.n, len(b.edges))
	}
	edges := b.edges
	b.edges = nil // transfer ownership
	m := len(edges)
	g := &Graph{
		n:          b.n,
		edgeFrom:   make([]int32, m),
		edgeTo:     make([]int32, m),
		edgeSign:   make([]int8, m),
		edgeWeight: make([]float64, m),
		outStart:   make([]int32, b.n+1),
		outList:    make([]int32, m),
		inStart:    make([]int32, b.n+1),
		inList:     make([]int32, m),
	}
	for i := range edges {
		e := &edges[i]
		g.edgeFrom[i] = int32(e.From)
		g.edgeTo[i] = int32(e.To)
		g.edgeSign[i] = int8(e.Sign)
		g.edgeWeight[i] = e.Weight
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for u := 0; u < g.n; u++ {
		g.outStart[u+1] += g.outStart[u]
		g.inStart[u+1] += g.inStart[u]
	}
	// Fill the adjacency lists with a cursor pass, then sort each node's
	// segment in place (out by target, in by source).
	outPos := make([]int32, g.n)
	inPos := make([]int32, g.n)
	for i := range edges {
		u, v := edges[i].From, edges[i].To
		g.outList[g.outStart[u]+outPos[u]] = int32(i)
		outPos[u]++
		g.inList[g.inStart[v]+inPos[v]] = int32(i)
		inPos[v]++
	}
	for u := 0; u < g.n; u++ {
		idx := g.out(u)
		sort.Slice(idx, func(a, b int) bool { return g.edgeTo[idx[a]] < g.edgeTo[idx[b]] })
		for j := 1; j < len(idx); j++ {
			if g.edgeTo[idx[j]] == g.edgeTo[idx[j-1]] {
				return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, u, g.edgeTo[idx[j]])
			}
		}
		in := g.in(u)
		sort.Slice(in, func(a, b int) bool { return g.edgeFrom[in[a]] < g.edgeFrom[in[b]] })
	}
	return g, nil
}

// CSRView exposes the graph's flat arrays for read-only hot-loop
// consumption: cascade extraction and the detection kernels iterate
// millions of edges per request, and going through the Out/In closure
// callbacks costs an indirect call per edge. The slices are the graph's
// own backing arrays (possibly aliasing a memory-mapped snapshot) — callers
// must never mutate them.
//
// Adjacency: OutList[OutStart[u]:OutStart[u+1]] are the edge indices of u's
// out-links sorted by EdgeTo; InList[InStart[v]:InStart[v+1]] are v's
// in-links sorted by EdgeFrom.
type CSRView struct {
	EdgeFrom, EdgeTo  []int32
	EdgeSign          []int8
	EdgeWeight        []float64
	OutStart, OutList []int32
	InStart, InList   []int32
	// owner pins the Graph — and therefore any mmap backing these slices —
	// while the view is reachable. Without it, a view retained past the
	// Graph's lifetime would let the mapping finalizer munmap memory the
	// slices still alias, and a later read would fault.
	owner *Graph
}

// CSR returns the flat-array view of the graph. The view keeps g (and any
// memory-mapped snapshot behind it) alive, so holding a CSRView is safe
// even after the last direct *Graph reference is dropped; raw slices
// copied out of the view carry no such pin and must not outlive it.
func (g *Graph) CSR() CSRView {
	return CSRView{
		EdgeFrom: g.edgeFrom, EdgeTo: g.edgeTo,
		EdgeSign: g.edgeSign, EdgeWeight: g.edgeWeight,
		OutStart: g.outStart, OutList: g.outList,
		InStart: g.inStart, InList: g.inList,
		owner: g,
	}
}

// MustBuild is Build for static graphs known to be valid; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
