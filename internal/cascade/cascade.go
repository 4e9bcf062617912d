// Package cascade turns an infected-network snapshot into the maximum-
// likelihood signed infected cascade forest of the paper's Section III-E:
// infected connected components are detected (Definition 6), each component
// is reduced to its most likely cascade trees via a maximum-arborescence
// solve (Algorithm 4), unknown node states are imputed, and general trees can be
// transformed into binary trees with dummy nodes (Figure 3) for the
// budgeted DP.
package cascade

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/arbor"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sgraph"
)

// Snapshot is the input of the ISOMIT problem: a diffusion network plus the
// observed state of every node at one moment in time. States may be
// StateUnknown for infected-but-unobserved nodes; StateInactive nodes are
// outside the infected subgraph.
type Snapshot struct {
	G      *sgraph.Graph
	States []sgraph.State
	// Rounds optionally carries partial timing metadata (an extension
	// beyond the paper, which observes states only): Rounds[v] >= 0 is
	// the round v was first observed infected, -1 means unknown. When
	// both endpoints of a candidate activation link carry timestamps,
	// extraction drops links that run backward in time. Nil when no
	// timing is available.
	Rounds []int32
}

// NewSnapshot validates lengths and state values.
func NewSnapshot(g *sgraph.Graph, states []sgraph.State) (*Snapshot, error) {
	if len(states) != g.NumNodes() {
		return nil, fmt.Errorf("cascade: %d states for %d nodes", len(states), g.NumNodes())
	}
	for v, s := range states {
		switch s {
		case sgraph.StatePositive, sgraph.StateNegative, sgraph.StateInactive, sgraph.StateUnknown:
		default:
			return nil, fmt.Errorf("cascade: invalid state %d at node %d", s, v)
		}
	}
	return &Snapshot{G: g, States: states}, nil
}

// NewSnapshotWithRounds builds a snapshot carrying partial first-infection
// timestamps; rounds[v] must be -1 (unknown) or >= 0, and only infected
// nodes may carry one.
func NewSnapshotWithRounds(g *sgraph.Graph, states []sgraph.State, rounds []int32) (*Snapshot, error) {
	snap, err := NewSnapshot(g, states)
	if err != nil {
		return nil, err
	}
	if len(rounds) != g.NumNodes() {
		return nil, fmt.Errorf("cascade: %d rounds for %d nodes", len(rounds), g.NumNodes())
	}
	for v, r := range rounds {
		if r < -1 {
			return nil, fmt.Errorf("cascade: invalid round %d at node %d", r, v)
		}
		if r >= 0 && states[v] == sgraph.StateInactive {
			return nil, fmt.Errorf("cascade: inactive node %d carries round %d", v, r)
		}
	}
	snap.Rounds = rounds
	return snap, nil
}

// timeAdmissible reports whether u could have activated v given the
// snapshot's (partial) timing: impossible only when both timestamps are
// known and u was first infected at or after v.
func (s *Snapshot) timeAdmissible(u, v int) bool {
	if s.Rounds == nil {
		return true
	}
	ru, rv := s.Rounds[u], s.Rounds[v]
	return ru < 0 || rv < 0 || ru < rv
}

// Infected returns the nodes considered part of the infected subgraph:
// active states plus unknown-state nodes (known to be infected, opinion
// unobserved). It runs on every detect, so it counts first and allocates
// the result exactly once.
func (s *Snapshot) Infected() []int {
	count := 0
	for _, st := range s.States {
		if st.Active() || st == sgraph.StateUnknown {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for v, st := range s.States {
		if st.Active() || st == sgraph.StateUnknown {
			out = append(out, v)
		}
	}
	return out
}

// WeightMode selects the edge score used for forest extraction.
type WeightMode int

const (
	// ModeBoosted scores each candidate activation link with the MFC
	// activation probability g(·) from Section III-B: min(1, α·w) on
	// consistent positive links, w on consistent negative links, and the
	// configured floor on sign-inconsistent links (which can only be
	// explained by a later flip). This is what RID uses.
	ModeBoosted WeightMode = iota
	// ModeRaw scores every link with its plain weight w, as in the
	// paper's tree likelihood L(T) = Π w(u,v) and the unsigned method of
	// Lappas et al. that RID-Positive generalizes.
	ModeRaw
)

// Config parameterizes forest extraction.
type Config struct {
	// Alpha is the MFC boosting coefficient used by ModeBoosted; must
	// be >= 1.
	Alpha float64
	// Mode selects the edge scoring; see WeightMode.
	Mode WeightMode
	// PositiveOnly drops negative links before extraction (the
	// RID-Positive baseline).
	PositiveOnly bool
	// InconsistentFloor is the g value of sign-inconsistent links under
	// ModeBoosted. Zero defaults to 1e-12. It must be positive: such links
	// are improbable (a flip must explain them) but not impossible.
	InconsistentFloor float64
	// WeightFloor bounds all scores away from zero so log-space
	// arborescence stays finite. Zero defaults to 1e-12.
	WeightFloor float64
	// RootScore is the log-space score of opening a tree root. Zero
	// defaults to -1e9, which makes the extractor open as few roots as
	// possible (only for nodes with no incoming candidate links), exactly
	// as the paper's construction implies.
	RootScore float64
	// Parallelism bounds the worker goroutines extraction fans infected
	// components across. Zero (or negative) means runtime.GOMAXPROCS(0);
	// 1 forces the serial path. Results are bit-identical at every
	// setting: components are handed out by index and collected into
	// index-addressed slots, and the score/RNG-free math is per-component.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.InconsistentFloor == 0 {
		c.InconsistentFloor = 1e-12
	}
	if c.WeightFloor == 0 {
		c.WeightFloor = 1e-12
	}
	if c.RootScore == 0 {
		c.RootScore = -1e9
	}
	return c
}

func (c Config) validate() error {
	if c.Alpha < 1 {
		return fmt.Errorf("cascade: Alpha must be >= 1, got %g", c.Alpha)
	}
	if c.InconsistentFloor <= 0 || c.InconsistentFloor > 1 {
		return fmt.Errorf("cascade: InconsistentFloor must be in (0,1], got %g", c.InconsistentFloor)
	}
	if c.WeightFloor <= 0 || c.WeightFloor > 1 {
		return fmt.Errorf("cascade: WeightFloor must be in (0,1], got %g", c.WeightFloor)
	}
	if c.RootScore >= 0 {
		return fmt.Errorf("cascade: RootScore must be negative, got %g", c.RootScore)
	}
	return nil
}

// Score returns the extraction score of a candidate activation link with
// the given sign and weight between observed states su -> sv, under cfg.
// Unknown endpoint states are scored as consistent: imputation will choose
// the consistent assignment.
func (c Config) Score(sign sgraph.Sign, w float64, su, sv sgraph.State) float64 {
	cfg := c.withDefaults()
	var score float64
	switch cfg.Mode {
	case ModeRaw:
		score = w
	default: // ModeBoosted
		consistent := su == sgraph.StateUnknown || sv == sgraph.StateUnknown ||
			sgraph.StateOf(su, sign) == sv
		if consistent {
			score = sgraph.LinkProbability(sign, w, cfg.Alpha)
		} else {
			score = cfg.InconsistentFloor
		}
	}
	if score < cfg.WeightFloor {
		score = cfg.WeightFloor
	}
	return score
}

// Forest is the extracted signed infected cascade forest.
type Forest struct {
	// Trees holds one cascade tree per detected root, grouped by
	// component: trees extracted from the same infected connected
	// component carry the same Component index.
	Trees []*Tree
	// Components is the number of infected connected components.
	Components int
}

// ForestStats summarizes an extracted forest.
type ForestStats struct {
	Trees, Components  int
	Nodes              int
	LargestTree        int
	MeanTreeSize       float64
	MaxDepth           int
	TotalLogLikelihood float64
	InconsistentEdges  int // edges scored at the inconsistency floor
	SingletonTrees     int
	MultiNodeTrees     int
}

// Stats computes summary statistics over the forest's trees.
func (f *Forest) Stats() ForestStats {
	st := ForestStats{Trees: len(f.Trees), Components: f.Components}
	floor := 0.0
	for _, t := range f.Trees {
		floor = t.ScoreCfg.withDefaults().InconsistentFloor
		n := t.Len()
		st.Nodes += n
		if n > st.LargestTree {
			st.LargestTree = n
		}
		if d := t.Depth(); d > st.MaxDepth {
			st.MaxDepth = d
		}
		st.TotalLogLikelihood += t.LogLikelihood()
		if n == 1 {
			st.SingletonTrees++
		} else {
			st.MultiNodeTrees++
		}
		for v := 1; v < n; v++ {
			if t.Score[v] <= floor {
				st.InconsistentEdges++
			}
		}
	}
	if st.Trees > 0 {
		st.MeanTreeSize = float64(st.Nodes) / float64(st.Trees)
	}
	return st
}

// ErrNoInfected is returned when the snapshot has no infected nodes.
var ErrNoInfected = errors.New("cascade: snapshot has no infected nodes")

// Extract implements Algorithm 4 over the whole snapshot: detect infected
// connected components, solve a maximum-likelihood spanning forest on each
// (a log-space maximum-arborescence solve — arbor's Tarjan kernel — so
// cycles are contracted exactly as the
// paper's CC routine prescribes), impute unknown states down the trees, and
// score every tree edge with g(·) for the downstream DP.
func Extract(snap *Snapshot, cfg Config) (*Forest, error) {
	return ExtractContext(context.Background(), snap, cfg)
}

// ExtractContext is Extract with pipeline observability and cooperative
// cancellation: each of the components / arborescence / tree_build stages
// switches the goroutine's pprof stage label and, when ctx carries an
// obs.Recorder, records its span timing and the typed cascade counters
// (infected nodes, components, trees, scanned and time-pruned edges, tree
// size and depth). With no recorder attached the counting is a handful of
// nil checks.
//
// Components are solved concurrently across cfg.Parallelism workers (zero
// = GOMAXPROCS), each holding its own scratch arenas; per-component trees
// land in index-addressed slots, so the flattened forest — tree order
// included — is bit-identical to the serial path. Cancelling ctx aborts
// between components.
func ExtractContext(ctx context.Context, snap *Snapshot, cfg Config) (*Forest, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rec := obs.RecorderFrom(ctx)
	span := obs.Stage(ctx, obs.StageComponents)
	infected := snap.Infected()
	if len(infected) == 0 {
		span.End()
		return nil, ErrNoInfected
	}
	comps := maskComponents(snap.G, infected, cfg.PositiveOnly)
	span.End()
	rec.MergeCounterSet(&obs.CounterSet{Cascade: obs.CascadeCounters{
		InfectedNodes: int64(len(infected)),
		Components:    int64(len(comps)),
	}})

	workers := par.Workers(cfg.Parallelism)
	treesByComp := make([][]*Tree, len(comps))
	scratches := make([]*extractScratch, workers)
	err := par.ForEach(ctx, workers, len(comps), func(w, ci int) error {
		s := scratches[w]
		if s == nil {
			s = getExtractScratch(rec, snap.G.NumNodes())
			scratches[w] = s
		}
		trees, err := extractComponent(ctx, snap, comps[ci], ci, cfg, s)
		treesByComp[ci] = trees
		return err
	})
	// Flush the per-worker span/counter batches whether or not the fan-out
	// succeeded, so cancelled requests still report the work they did.
	for _, s := range scratches {
		if s != nil {
			s.acc.Flush()
			s.release()
		}
	}
	if err != nil {
		return nil, err
	}

	total := 0
	for _, trees := range treesByComp {
		total += len(trees)
	}
	forest := &Forest{Components: len(comps), Trees: make([]*Tree, 0, total)}
	for _, trees := range treesByComp {
		forest.Trees = append(forest.Trees, trees...)
	}
	rec.MergeCounterSet(&obs.CounterSet{Cascade: obs.CascadeCounters{Trees: int64(len(forest.Trees))}})
	return forest, nil
}

// cand is the original sign/weight of a candidate activation link,
// parallel to the scored arbor edge list.
type cand struct {
	sign   sgraph.Sign
	weight float64
}

// extractScratch is one worker's reusable state for extractComponent: the
// dense node re-indexing array, the candidate edge lists, the per-root BFS
// order and the arborescence solver all keep their capacity across
// components, so the fan-out multiplies throughput instead of allocations.
// Spans and counters batch into acc (nil-safe) and are flushed once when
// the worker's components are done.
type extractScratch struct {
	pos      []int32 // parent node ID -> component index; -1 outside, reset after use
	edges    []arbor.Edge
	cands    []cand
	childIdx [][]int32
	localOf  []int32
	order    []int32 // BFS order of one tree, component indices
	roots    []int
	slv      arbor.Solver
	acc      *obs.Accum
}

// scratchPool recycles scratches across Extract calls. The arborescence
// solver arenas dominate a detection's allocations, so warm arenas make
// repeated detections — server requests, experiment trials — pay only for
// the trees they return. Pooled scratches hold no recorder state.
var scratchPool = sync.Pool{
	New: func() any { return new(extractScratch) },
}

func getExtractScratch(rec *obs.Recorder, subNodes int) *extractScratch {
	s := scratchPool.Get().(*extractScratch)
	s.acc = rec.NewAccum()
	// The pooled solver counts into this worker's batch; CS() is nil when
	// no recorder is attached, which SetCounters treats as "don't count".
	s.slv.SetCounters(s.acc.CS())
	if cap(s.pos) < subNodes {
		s.pos = make([]int32, subNodes)
		for i := range s.pos {
			s.pos[i] = -1
		}
	} else {
		// extractComponent restores every entry it touches to -1, so any
		// prefix of a pooled pos is ready to use.
		s.pos = s.pos[:subNodes]
	}
	return s
}

func (s *extractScratch) release() {
	s.acc = nil
	// Detach the counter sink: a pooled Solver must never write counters
	// into a retired request's batch.
	s.slv.SetCounters(nil)
	scratchPool.Put(s)
}

// extractComponent solves one infected connected component — its members
// given as ascending parent-graph node IDs — into rooted cascade trees: a
// log-space maximum-weight spanning forest over the component's candidate
// diffusion links, converted into Tree values with imputed states.
//
// The hot loops run on the parent graph's flat CSR arrays: candidate edges
// come from a direct scan of each member's out-edge segment (no induced
// subgraph is built), membership tests are a dense position array, tree
// node order is a frontier-array BFS, and the nine per-tree attribute
// slices are carved out of per-component arenas (one allocation per
// attribute per component instead of nine per tree). Intermediate storage
// comes from the worker-owned scratch; only the returned trees and their
// arenas are freshly allocated.
//
// Bit-identity with the induced-subgraph reference oracle
// (reference_test.go): members ascend, so dense component indices are
// order-isomorphic to the local IDs sgraph.Induce would assign, and the
// CSR out-lists are sorted by target, so the filtered scan emits candidate
// edges in exactly the order the induced graph's Out iteration did — same
// arbor input, same forest.
func extractComponent(ctx context.Context, snap *Snapshot, comp []int32, compIdx int, cfg Config, s *extractScratch) ([]*Tree, error) {
	// Two stages: arborescence for the scan + solve, tree_build for BFS
	// tree construction. Per-component (not per-tree) granularity keeps
	// the stage-label switches off the hot loop.
	span := s.acc.Stage(ctx, obs.StageArborescence)
	// Dense re-indexing of the component's nodes on parent IDs.
	pos := s.pos
	for i, v := range comp {
		pos[v] = int32(i)
	}
	states := snap.States
	csr := snap.G.CSR()

	edges := s.edges[:0]
	cands := s.cands[:0]
	// Work counts stay in locals through the scan (the batch's CounterSet
	// may be nil when no recorder is attached) and fold in afterwards.
	// scanned counts sign-admissible links between component members — the
	// same population the reference path's induced-subgraph scan sees.
	var scanned, pruned int64
	for i, v := range comp {
		for _, ei := range csr.OutList[csr.OutStart[v]:csr.OutStart[v+1]] {
			sign := sgraph.Sign(csr.EdgeSign[ei])
			if cfg.PositiveOnly && sign != sgraph.Positive {
				continue
			}
			j := pos[csr.EdgeTo[ei]]
			if j < 0 {
				continue
			}
			scanned++
			if !snap.timeAdmissible(int(v), int(comp[j])) {
				pruned++
				continue // known timestamps rule this activation out
			}
			score := cfg.Score(sign, csr.EdgeWeight[ei], states[v], states[comp[j]])
			edges = append(edges, arbor.Edge{From: i, To: int(j), Weight: math.Log(score)})
			cands = append(cands, cand{sign: sign, weight: csr.EdgeWeight[ei]})
		}
	}
	for _, v := range comp {
		pos[v] = -1 // restore the sentinel for the next component
	}
	s.edges, s.cands = edges, cands
	cs := s.acc.CS()
	if cs != nil {
		cs.Cascade.EdgesScanned += scanned
		cs.Cascade.TimePruned += pruned
	}
	parents, _, err := s.slv.MaxForest(len(comp), edges, cfg.RootScore)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("cascade: component %d: %w", compIdx, err)
	}

	span = s.acc.Stage(ctx, obs.StageTreeBuild)
	// Children lists on component indices, then one BFS per root.
	if cap(s.childIdx) < len(comp) {
		s.childIdx = make([][]int32, len(comp))
	}
	childIdx := s.childIdx[:len(comp)]
	for i := range childIdx {
		childIdx[i] = childIdx[i][:0]
	}
	roots := s.roots[:0]
	for i := range comp {
		if parents[i] == -1 {
			roots = append(roots, i)
			continue
		}
		p := edges[parents[i]].From
		childIdx[p] = append(childIdx[p], int32(i))
	}
	s.roots = roots
	if cap(s.localOf) < len(comp) {
		s.localOf = make([]int32, len(comp))
	}
	localOf := s.localOf[:len(comp)]
	trees := make([]*Tree, 0, len(roots))
	// ScoreCfg is likelihood semantics, not execution policy: normalize the
	// concurrency knob away so serial and parallel runs build equal trees.
	scoreCfg := cfg
	scoreCfg.Parallelism = 0
	// Arena-backed tree attributes: the component's trees partition its
	// nodes, so one exact-size allocation per attribute serves every tree.
	// Each tree gets a capacity-clamped sub-slice (three-index slicing), so
	// a later append — Binarize growing a tree with dummy nodes —
	// reallocates instead of stomping its arena neighbor. The kids arena is
	// sized to the non-root count: every node except a root appears in
	// exactly one children list.
	ar := treeArena{
		orig:     make([]int, len(comp)),
		parent:   make([]int32, len(comp)),
		sign:     make([]sgraph.Sign, len(comp)),
		weight:   make([]float64, len(comp)),
		score:    make([]float64, len(comp)),
		state:    make([]sgraph.State, len(comp)),
		observed: make([]sgraph.State, len(comp)),
		dummy:    make([]bool, len(comp)),
		children: make([][]int32, len(comp)),
		kids:     make([]int32, len(comp)-len(roots)),
	}
	for _, r := range roots {
		// BFS with a head index — the old queue = queue[1:] pop pinned the
		// consumed prefix in memory for the life of the queue — collecting
		// the tree's node order so the parallel Tree slices can be carved
		// at exact size and filled by index.
		order := append(s.order[:0], int32(r))
		for head := 0; head < len(order); head++ {
			ci := order[head]
			localOf[ci] = int32(head)
			order = append(order, childIdx[ci]...)
		}
		s.order = order
		t := ar.newTree(compIdx, len(order))
		for local, ci := range order {
			var parentLocal int32 = -1
			var sign sgraph.Sign
			var weight, score float64 = 0, 1
			if pe := parents[ci]; pe != -1 {
				parentLocal = localOf[edges[pe].From]
				sign = cands[pe].sign
				weight = cands[pe].weight
				score = cfg.Score(sign, weight, states[comp[edges[pe].From]], states[comp[ci]])
			}
			t.Orig[local] = int(comp[ci])
			t.Parent[local] = parentLocal
			t.Sign[local] = sign
			t.Weight[local] = weight
			t.Score[local] = score
			t.State[local] = states[comp[ci]]
			t.Observed[local] = states[comp[ci]]
			if kids := childIdx[ci]; len(kids) > 0 {
				locals := ar.nextKids(len(kids))
				for x, ch := range kids {
					locals[x] = localOf[ch]
				}
				t.Children[local] = locals
			}
		}
		imputeStates(t)
		rescore(t, cfg)
		t.ScoreCfg = scoreCfg
		if cs != nil {
			cs.Cascade.TreeSize.Observe(int64(t.Len()))
			cs.Cascade.TreeDepth.Observe(int64(t.Depth()))
		}
		trees = append(trees, t)
	}
	span.End()
	return trees, nil
}

// treeArena hands out exact-size, capacity-clamped sub-slices of
// per-component attribute arrays to successive trees. The arenas escape
// with the trees (they are not pooled); what they save is allocation count
// and fragmentation, not lifetime.
type treeArena struct {
	orig     []int
	parent   []int32
	sign     []sgraph.Sign
	weight   []float64
	score    []float64
	state    []sgraph.State
	observed []sgraph.State
	dummy    []bool
	children [][]int32
	kids     []int32
	off      int // node cursor
	kidOff   int // kids cursor
}

// newTree carves the next n-node segment out of every attribute arena.
func (ar *treeArena) newTree(compIdx, n int) *Tree {
	lo, hi := ar.off, ar.off+n
	ar.off = hi
	return &Tree{
		Component: compIdx,
		Orig:      ar.orig[lo:hi:hi],
		Parent:    ar.parent[lo:hi:hi],
		Children:  ar.children[lo:hi:hi],
		Sign:      ar.sign[lo:hi:hi],
		Weight:    ar.weight[lo:hi:hi],
		Score:     ar.score[lo:hi:hi],
		State:     ar.state[lo:hi:hi],
		Observed:  ar.observed[lo:hi:hi],
		Dummy:     ar.dummy[lo:hi:hi],
	}
}

// nextKids carves one children list of length n.
func (ar *treeArena) nextKids(n int) []int32 {
	lo, hi := ar.kidOff, ar.kidOff+n
	ar.kidOff = hi
	return ar.kids[lo:hi:hi]
}
