package sgraph

import "sort"

// Subgraph is a node-induced subgraph of a parent Graph with its own dense
// node IDs. Local maps back to parent IDs via Orig, and forward via Local.
type Subgraph struct {
	// G is the induced graph with local node IDs 0..len(Orig)-1.
	G *Graph
	// Orig[i] is the parent-graph ID of local node i.
	Orig []int
	// local maps parent IDs to local IDs (absent keys are not in the
	// subgraph).
	local map[int]int
}

// Local returns the local ID of parent node u, if present.
func (s *Subgraph) Local(u int) (int, bool) {
	v, ok := s.local[u]
	return v, ok
}

// Induce builds the subgraph of g induced by the given parent node set.
// Every edge of g with both endpoints in nodes is kept, with sign and
// weight preserved. The order of nodes determines local IDs. Duplicate
// entries in nodes are rejected by the builder via duplicate edges only;
// callers must pass distinct IDs.
func Induce(g *Graph, nodes []int) *Subgraph {
	local := make(map[int]int, len(nodes))
	for i, u := range nodes {
		local[u] = i
	}
	b := NewBuilder(len(nodes))
	for i, u := range nodes {
		g.Out(u, func(e Edge) {
			if j, ok := local[e.To]; ok {
				b.AddEdge(i, j, e.Sign, e.Weight)
			}
		})
	}
	orig := make([]int, len(nodes))
	copy(orig, nodes)
	return &Subgraph{G: b.MustBuild(), Orig: orig, local: local}
}

// ConnectedComponents partitions the nodes of g into weakly connected
// components (Definition 6: direction-blind connectivity), returned as
// slices of node IDs in ascending order. The whole pass is O(n + m) via BFS.
func ConnectedComponents(g *Graph) [][]int {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int, 0, 64)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp[start] = id
		// Head-index pop: reslicing the queue head would strand capacity
		// behind it and force reallocation on every component.
		queue = append(queue[:0], start)
		members := []int{start}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			visit := func(e Edge) {
				w := e.To
				if w == u {
					w = e.From
				}
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
					members = append(members, w)
				}
			}
			g.Out(u, visit)
			g.In(u, visit)
		}
		comps = append(comps, members)
	}
	for _, c := range comps {
		sort.Ints(c)
	}
	return comps
}
