package sgraph

import (
	"context"
	"math"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Jaccard returns the Jaccard coefficient of social link (v, u) per the
// paper's experimental setup: |Γout(v) ∩ Γin(u)| / |Γout(v) ∪ Γin(u)|,
// where Γout(v) is the set of users v follows and Γin(u) the followers of
// u. Returns 0 when both neighborhoods are empty.
func Jaccard(g *Graph, v, u int) float64 {
	// Out-neighbors of v are sorted by target; in-neighbors of u sorted by
	// source. Walk both in one merge pass.
	vo := g.out(v)
	ui := g.in(u)
	inter := 0
	i, j := 0, 0
	for i < len(vo) && j < len(ui) {
		a := int(g.edgeTo[vo[i]])
		b := int(g.edgeFrom[ui[j]])
		switch {
		case a == b:
			inter++
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	union := len(vo) + len(ui) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// neighborIndex materializes, once per weighting pass, the sorted
// out-neighbor and in-neighbor ID lists the topological scores merge per
// edge. The per-pair Jaccard above walks g.outIdx/g.inIdx and dereferences
// the edge array at every merge step; over a whole graph that indirection
// dominates workload generation, so WeightBy/WeightByJaccard flatten the
// neighborhoods into two contiguous arrays up front and score all edges
// against those.
type neighborIndex struct {
	out, in [][]int32
}

func newNeighborIndex(g *Graph) *neighborIndex {
	idx := &neighborIndex{
		out: make([][]int32, g.n),
		in:  make([][]int32, g.n),
	}
	outFlat := make([]int32, g.NumEdges())
	inFlat := make([]int32, g.NumEdges())
	opos, ipos := 0, 0
	for v := 0; v < g.n; v++ {
		ov := g.out(v)
		lst := outFlat[opos : opos+len(ov)]
		for i, ei := range ov {
			lst[i] = g.edgeTo[ei]
		}
		idx.out[v] = lst
		opos += len(lst)
		iv := g.in(v)
		lst = inFlat[ipos : ipos+len(iv)]
		for i, ei := range iv {
			lst[i] = g.edgeFrom[ei]
		}
		idx.in[v] = lst
		ipos += len(lst)
	}
	return idx
}

// jaccard is Jaccard on the flattened index.
func (idx *neighborIndex) jaccard(v, u int) float64 {
	vo, ui := idx.out[v], idx.in[u]
	inter := 0
	i, j := 0, 0
	for i < len(vo) && j < len(ui) {
		a, b := vo[i], ui[j]
		switch {
		case a == b:
			inter++
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	union := len(vo) + len(ui) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// common returns |Γout(v) ∩ Γin(u)| for social link (v, u) — the raw
// intimacy count underlying the Jaccard coefficient.
func (idx *neighborIndex) common(v, u int) int {
	vo, ui := idx.out[v], idx.in[u]
	inter := 0
	i, j := 0, 0
	for i < len(vo) && j < len(ui) {
		a, b := vo[i], ui[j]
		switch {
		case a == b:
			inter++
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return inter
}

// adamicAdar returns the Adamic-Adar index of social link (v, u): the sum
// over common neighbors w of 1/log(deg(w)), where deg is total (in+out)
// degree — frequent intermediaries count less (Liben-Nowell & Kleinberg
// 2007, the paper's reference [18] for link weighting). The 1/log(deg)
// terms are precomputed once per node in invLogDeg.
func (idx *neighborIndex) adamicAdar(invLogDeg []float64, v, u int) float64 {
	vo, ui := idx.out[v], idx.in[u]
	sum := 0.0
	i, j := 0, 0
	for i < len(vo) && j < len(ui) {
		a, b := vo[i], ui[j]
		switch {
		case a == b:
			sum += invLogDeg[a]
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return sum
}

// invLogDegrees precomputes the Adamic-Adar 1/log(deg) contribution per
// node; a node of degree at most 1 counts as degree 2, keeping the term
// finite.
func (idx *neighborIndex) invLogDegrees() []float64 {
	out := make([]float64, len(idx.out))
	for v := range out {
		if d := len(idx.out[v]) + len(idx.in[v]); d > 1 {
			out[v] = 1 / math.Log(float64(d))
		} else {
			out[v] = 1 / math.Log(2)
		}
	}
	return out
}

// rawScores computes the scheme's raw score for every edge, fanning
// contiguous edge chunks across GOMAXPROCS workers. Each slot is written
// by exactly one worker and no RNG is involved, so the result is identical
// to the serial pass.
func rawScores(g *Graph, scheme WeightScheme) []float64 {
	idx := newNeighborIndex(g)
	var invLogDeg []float64
	if scheme == SchemeAdamicAdar {
		invLogDeg = idx.invLogDegrees()
	}
	raw := make([]float64, g.NumEdges())
	workers := par.Workers(0)
	_ = par.ForEach(context.Background(), workers, workers, func(_, chunk int) error {
		lo := chunk * len(raw) / workers
		hi := (chunk + 1) * len(raw) / workers
		for i := lo; i < hi; i++ {
			from, to := int(g.edgeFrom[i]), int(g.edgeTo[i])
			switch scheme {
			case SchemeAdamicAdar:
				raw[i] = idx.adamicAdar(invLogDeg, from, to)
			case SchemeCommonNeighbors:
				raw[i] = float64(idx.common(from, to))
			default:
				raw[i] = idx.jaccard(from, to)
			}
		}
		return nil
	})
	return raw
}

// WeightScheme selects how link weights are derived from topology.
type WeightScheme int

const (
	// SchemeJaccard is the paper's choice (Sec. IV-B3).
	SchemeJaccard WeightScheme = iota
	// SchemeAdamicAdar normalizes the Adamic-Adar index by its graph
	// maximum, keeping weights in [0, 1].
	SchemeAdamicAdar
	// SchemeCommonNeighbors normalizes the raw common-neighbor count by
	// its graph maximum.
	SchemeCommonNeighbors
)

// WeightBy re-weights the social graph with the chosen topological scheme,
// using the uniform [0, fallbackMax) fallback for zero-score links exactly
// as WeightByJaccard does.
func WeightBy(g *Graph, scheme WeightScheme, fallbackMax float64, rng *xrand.Rand) *Graph {
	if scheme == SchemeJaccard {
		return WeightByJaccard(g, fallbackMax, rng)
	}
	raw := rawScores(g, scheme)
	maxRaw := 0.0
	for _, r := range raw {
		if r > maxRaw {
			maxRaw = r
		}
	}
	// The builder pass stays serial: the zero-score RNG fallback must draw
	// in edge order to keep re-weighted graphs bit-identical run to run.
	b := NewBuilder(g.NumNodes())
	for i := range raw {
		w := 0.0
		if maxRaw > 0 {
			w = raw[i] / maxRaw
		}
		if w == 0 {
			w = rng.Range(0, fallbackMax)
		}
		b.AddEdge(int(g.edgeFrom[i]), int(g.edgeTo[i]), Sign(g.edgeSign[i]), w)
	}
	return b.MustBuild()
}

// WeightByJaccard returns a copy of the social graph g whose link weights
// are replaced by Jaccard coefficients, with zero-coefficient links drawn
// uniformly from [0, fallbackMax) — the paper uses fallbackMax = 0.1
// ("for links whose JC scores are 0, we randomly assign their weight with
// values randomly sampled from uniform distribution in range [0, 0.1]").
// Signs and topology are preserved.
func WeightByJaccard(g *Graph, fallbackMax float64, rng *xrand.Rand) *Graph {
	raw := rawScores(g, SchemeJaccard)
	// Serial builder pass: RNG fallbacks must be drawn in edge order so the
	// re-weighted graph is bit-identical run to run (see WeightBy).
	b := NewBuilder(g.NumNodes())
	for i := range raw {
		w := raw[i]
		if w == 0 {
			w = rng.Range(0, fallbackMax)
		}
		if w > 1 {
			w = 1
		}
		b.AddEdge(int(g.edgeFrom[i]), int(g.edgeTo[i]), Sign(g.edgeSign[i]), w)
	}
	return b.MustBuild()
}
