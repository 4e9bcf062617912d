package arbor

// GreedyInEdge implements Algorithm 2 (MWSG) in isolation: every node
// independently picks its maximum-weight in-edge. The result may contain
// cycles; the full extraction resolves them via contraction. Exposed for
// tests and for the ablation comparing one greedy round against the full
// Chu-Liu/Edmonds solution. Returns the index of the picked in-edge per
// node (-1 where a node has no in-edges).
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
