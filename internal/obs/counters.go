package obs

// This file defines the pipeline's one counter vocabulary, the typed
// CounterSet. It answers both "how much work did the pipeline do" and
// "what did the algorithms underneath actually do" — how many infected
// nodes, components and trees there were, which arborescence kernel ran and how many heap operations and cycle
// contractions it resolved, how the cascade forest was shaped, which
// ISOMIT DP modes solved the trees, what the diffusion simulation did
// round by round. Hot kernels accumulate into a plain (lock-free,
// single-owner) CounterSet — typically the one owned by a worker's Accum —
// and the batches are merged into the request's Recorder at stage end, so
// the hot paths never touch a lock or a map.

// WorkHistBounds are the inclusive upper bounds of the WorkHist buckets
// (counts above the last bound land in the +Inf bucket). Powers of two:
// tree sizes and depths in extracted cascade forests are heavy-tailed, and
// doubling buckets resolve both the singleton mass and the giant-component
// tail.
var WorkHistBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// workHistLen is the bucket count of a WorkHist: one per bound plus +Inf.
const workHistLen = len(WorkHistBounds) + 1

// WorkHist is a fixed-bucket histogram of small integer work measures
// (tree sizes, tree depths). The zero value is empty and ready to use. It
// is not safe for concurrent use; ownership follows its enclosing
// CounterSet.
type WorkHist struct {
	// Buckets holds per-bucket (non-cumulative) observation counts under
	// WorkHistBounds, with the +Inf bucket last.
	Buckets [workHistLen]int64 `json:"buckets"`
	// Sum is the sum of observed values; Max the largest single value.
	Sum int64 `json:"sum"`
	Max int64 `json:"max"`
}

// Observe records one value.
func (h *WorkHist) Observe(v int64) {
	i := 0
	for i < len(WorkHistBounds) && v > WorkHistBounds[i] {
		i++
	}
	h.Buckets[i]++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Count returns the number of observations.
func (h *WorkHist) Count() int64 {
	var n int64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Cumulative returns the Prometheus-shaped cumulative bucket counts
// (parallel to WorkHistBounds, +Inf last, ending at Count).
func (h *WorkHist) Cumulative() []int64 {
	out := make([]int64, workHistLen)
	var run int64
	for i, c := range h.Buckets {
		run += c
		out[i] = run
	}
	return out
}

func (h *WorkHist) merge(o *WorkHist) {
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

func (h *WorkHist) zero() bool {
	for _, c := range h.Buckets {
		if c != 0 {
			return false
		}
	}
	return true
}

// ArborCounters instruments the arborescence kernel (internal/arbor).
type ArborCounters struct {
	// TarjanSolves counts arborescence solves (MaxForest counts once, via
	// its internal MaxArborescence).
	TarjanSolves int64 `json:"tarjan_solves,omitempty"`
	// EdgesStaged is the number of candidate edges surviving the kernel's
	// input filter (self-loops and root in-edges dropped), summed over
	// solves.
	EdgesStaged int64 `json:"edges_staged,omitempty"`
	// HeapMelds / HeapPops count skew-heap operations (melds include
	// recursive steps, so this is total heap work).
	HeapMelds int64 `json:"heap_melds,omitempty"`
	HeapPops  int64 `json:"heap_pops,omitempty"`
	// CyclesContracted counts cycle contractions (super-vertices created).
	CyclesContracted int64 `json:"cycles_contracted,omitempty"`
}

// CascadeCounters instruments forest extraction (internal/cascade).
type CascadeCounters struct {
	// InfectedNodes / Components / Trees size the infected subgraph
	// (Definition 6) and the extracted forest.
	InfectedNodes int64 `json:"infected_nodes,omitempty"`
	Components    int64 `json:"components,omitempty"`
	Trees         int64 `json:"trees,omitempty"`
	// EdgesScanned counts every out-edge examined while building candidate
	// activation links (including ones rejected by timing); TimePruned the
	// candidates dropped because known timestamps run backward. The
	// candidate links scored for the forest solve number EdgesScanned −
	// TimePruned.
	EdgesScanned int64 `json:"edges_scanned,omitempty"`
	TimePruned   int64 `json:"time_pruned,omitempty"`
	// TreeSize / TreeDepth are histograms over the extracted trees;
	// TreeSize.Sum is the total node count across trees.
	TreeSize  WorkHist `json:"tree_size"`
	TreeDepth WorkHist `json:"tree_depth"`
}

// ISOMITCounters instruments the per-tree initiator solvers
// (internal/isomit, as driven by core.RID).
type ISOMITCounters struct {
	// Per-mode solve counts (one per tree solved in that mode).
	LocalSolves       int64 `json:"local_solves,omitempty"`
	PenalizedSolves   int64 `json:"penalized_solves,omitempty"`
	BudgetSolves      int64 `json:"budget_solves,omitempty"`
	BudgetStateSolves int64 `json:"budget_state_solves,omitempty"`
	// AutoRounds is the number of k values tried by the incremental
	// k-selection loop, summed over auto-mode solves.
	AutoRounds int64 `json:"auto_rounds,omitempty"`
	// DPCells is the number of DP cells evaluated (memo entries, budget
	// states, ancestor slots or threshold checks), summed over solves.
	DPCells int64 `json:"dp_cells,omitempty"`
	// BudgetFallbacks counts trees that exceeded MaxBudgetTreeSize and
	// fell back from the budget DP to the penalized DP.
	BudgetFallbacks int64 `json:"budget_fallbacks,omitempty"`
}

// IngestCounters instruments the event-sourced ingest sessions
// (internal/ingest): how many activation events a session absorbed and, per
// incremental detect, how many infected components actually had to be
// re-extracted and re-solved versus served from their cached result. The
// dirty/reused split is the proof that the delta path does less work than a
// one-shot detect.
type IngestCounters struct {
	// EventsApplied counts activation-link events applied to the session.
	EventsApplied int64 `json:"events_applied,omitempty"`
	// ComponentsDirty counts infected components re-extracted and re-solved
	// by incremental detects; ComponentsReused those served verbatim from
	// the per-component result cache.
	ComponentsDirty  int64 `json:"components_dirty,omitempty"`
	ComponentsReused int64 `json:"components_reused,omitempty"`
	// Unions counts union-find merges of infected components performed
	// while applying events.
	Unions int64 `json:"unions,omitempty"`
}

// DiffusionCounters instruments the diffusion simulators
// (internal/diffusion MFC and the models built on it).
type DiffusionCounters struct {
	// Runs counts simulations; Rounds propagation rounds executed.
	Runs   int64 `json:"runs,omitempty"`
	Rounds int64 `json:"rounds,omitempty"`
	// Attempts counts activation attempts, Activations nodes ever
	// activated beyond the initiators, Flips successful sign flips of
	// already-active nodes, Exchanges gossip contacts (pushpull only).
	Attempts    int64 `json:"attempts,omitempty"`
	Activations int64 `json:"activations,omitempty"`
	Flips       int64 `json:"flips,omitempty"`
	Exchanges   int64 `json:"exchanges,omitempty"`
}

// CounterSet is the typed algorithm-depth counter batch threaded through
// the pipeline: arbor, cascade, isomit (via core) and diffusion each own a
// sub-struct. A CounterSet is plain data — not synchronized — and is owned
// by exactly one goroutine at a time: hot kernels write the one handed to
// them (usually a worker Accum's), and batches are merged into the shared
// Recorder under its lock. The zero value is empty and ready to use.
type CounterSet struct {
	Arbor     ArborCounters     `json:"arbor"`
	Cascade   CascadeCounters   `json:"cascade"`
	ISOMIT    ISOMITCounters    `json:"isomit"`
	Ingest    IngestCounters    `json:"ingest"`
	Diffusion DiffusionCounters `json:"diffusion"`
}

// Merge folds o into c field by field. Nil-safe on both sides.
func (c *CounterSet) Merge(o *CounterSet) {
	if c == nil || o == nil {
		return
	}
	c.Arbor.TarjanSolves += o.Arbor.TarjanSolves
	c.Arbor.EdgesStaged += o.Arbor.EdgesStaged
	c.Arbor.HeapMelds += o.Arbor.HeapMelds
	c.Arbor.HeapPops += o.Arbor.HeapPops
	c.Arbor.CyclesContracted += o.Arbor.CyclesContracted
	c.Cascade.InfectedNodes += o.Cascade.InfectedNodes
	c.Cascade.Components += o.Cascade.Components
	c.Cascade.Trees += o.Cascade.Trees
	c.Cascade.EdgesScanned += o.Cascade.EdgesScanned
	c.Cascade.TimePruned += o.Cascade.TimePruned
	c.Cascade.TreeSize.merge(&o.Cascade.TreeSize)
	c.Cascade.TreeDepth.merge(&o.Cascade.TreeDepth)
	c.ISOMIT.LocalSolves += o.ISOMIT.LocalSolves
	c.ISOMIT.PenalizedSolves += o.ISOMIT.PenalizedSolves
	c.ISOMIT.BudgetSolves += o.ISOMIT.BudgetSolves
	c.ISOMIT.BudgetStateSolves += o.ISOMIT.BudgetStateSolves
	c.ISOMIT.AutoRounds += o.ISOMIT.AutoRounds
	c.ISOMIT.DPCells += o.ISOMIT.DPCells
	c.ISOMIT.BudgetFallbacks += o.ISOMIT.BudgetFallbacks
	c.Ingest.EventsApplied += o.Ingest.EventsApplied
	c.Ingest.ComponentsDirty += o.Ingest.ComponentsDirty
	c.Ingest.ComponentsReused += o.Ingest.ComponentsReused
	c.Ingest.Unions += o.Ingest.Unions
	c.Diffusion.Runs += o.Diffusion.Runs
	c.Diffusion.Rounds += o.Diffusion.Rounds
	c.Diffusion.Attempts += o.Diffusion.Attempts
	c.Diffusion.Activations += o.Diffusion.Activations
	c.Diffusion.Flips += o.Diffusion.Flips
	c.Diffusion.Exchanges += o.Diffusion.Exchanges
}

// Zero reports whether nothing has been counted (a nil set is zero).
func (c *CounterSet) Zero() bool {
	if c == nil {
		return true
	}
	zero := true
	c.Each(func(string, int64) { zero = false })
	return zero && c.Cascade.TreeSize.zero() && c.Cascade.TreeDepth.zero()
}

// Each calls fn for every non-zero scalar counter with a flat snake_case
// name prefixed by its subsystem (arbor_heap_melds, isomit_dp_cells, ...),
// in a fixed order. Histograms are not enumerated — render those from the
// typed fields. Nil-safe.
func (c *CounterSet) Each(fn func(name string, v int64)) {
	if c == nil {
		return
	}
	emit := func(name string, v int64) {
		if v != 0 {
			fn(name, v)
		}
	}
	emit("arbor_tarjan_solves", c.Arbor.TarjanSolves)
	emit("arbor_edges_staged", c.Arbor.EdgesStaged)
	emit("arbor_heap_melds", c.Arbor.HeapMelds)
	emit("arbor_heap_pops", c.Arbor.HeapPops)
	emit("arbor_cycles_contracted", c.Arbor.CyclesContracted)
	emit("cascade_infected_nodes", c.Cascade.InfectedNodes)
	emit("cascade_components", c.Cascade.Components)
	emit("cascade_trees", c.Cascade.Trees)
	emit("cascade_edges_scanned", c.Cascade.EdgesScanned)
	emit("cascade_time_pruned", c.Cascade.TimePruned)
	emit("isomit_local_solves", c.ISOMIT.LocalSolves)
	emit("isomit_penalized_solves", c.ISOMIT.PenalizedSolves)
	emit("isomit_budget_solves", c.ISOMIT.BudgetSolves)
	emit("isomit_budget_state_solves", c.ISOMIT.BudgetStateSolves)
	emit("isomit_auto_rounds", c.ISOMIT.AutoRounds)
	emit("isomit_dp_cells", c.ISOMIT.DPCells)
	emit("isomit_budget_fallbacks", c.ISOMIT.BudgetFallbacks)
	emit("ingest_events_applied", c.Ingest.EventsApplied)
	emit("ingest_components_dirty", c.Ingest.ComponentsDirty)
	emit("ingest_components_reused", c.Ingest.ComponentsReused)
	emit("ingest_unions", c.Ingest.Unions)
	emit("diffusion_runs", c.Diffusion.Runs)
	emit("diffusion_rounds", c.Diffusion.Rounds)
	emit("diffusion_attempts", c.Diffusion.Attempts)
	emit("diffusion_activations", c.Diffusion.Activations)
	emit("diffusion_flips", c.Diffusion.Flips)
	emit("diffusion_exchanges", c.Diffusion.Exchanges)
}
