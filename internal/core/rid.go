package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"

	"repro/internal/cascade"
	"repro/internal/isomit"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sgraph"
)

// Objective selects the per-tree score RID optimizes.
type Objective int

const (
	// ObjectiveLocal scores each non-initiator node with the MFC
	// activation probability of its own in-edge conditional on its parent
	// (the paper's P(u,s(u)|I,S) for a one-hop path). This Markov form is
	// scale-free in tree depth and gives β its paper semantics on [0, 1]:
	// β = 0 shatters trees, β = 1 keeps them whole. The default.
	ObjectiveLocal Objective = iota
	// ObjectivePartition is the literal path-product partition objective
	// of Section III-E3: a governed node contributes the product of g
	// scores from its nearest initiator ancestor. Exact via
	// isomit.Solve in ModePenalized; kept for faithfulness and ablations. Note
	// that compound products decay with depth, so the β range with real
	// weights sits well above [0, 1].
	ObjectivePartition
)

// RIDConfig parameterizes the RID detector.
type RIDConfig struct {
	// Alpha is the MFC asymmetric boosting coefficient used when scoring
	// candidate activation links; must be >= 1. The paper's experiments
	// use 3.
	Alpha float64
	// Beta is the per-extra-initiator penalty β of Section III-E3. The
	// paper evaluates 0.09 and 0.1 and sweeps [0, 1].
	Beta float64
	// Objective selects the per-tree score; see Objective. Zero value is
	// ObjectiveLocal.
	Objective Objective
	// UseBudgetDP switches per-tree inference from the exact penalized DP
	// to the paper's literal procedure: binarize the tree (Figure 3) and
	// search k incrementally with the k-ISOMIT-BT DP (Section III-D),
	// stopping when the objective stops improving. Slower and — because
	// the incremental stop is a heuristic — occasionally worse; kept for
	// faithfulness and for the ablation benches.
	UseBudgetDP bool
	// BranchStates enables the paper's full three-case recursion in the
	// budget DP: initiators may assume either ±1 state, with
	// contradicting observations scored 0 and out-edges re-scored. Only
	// meaningful with UseBudgetDP.
	BranchStates bool
	// MaxBudgetTreeSize skips the budget DP on trees larger than this
	// and falls back to the penalized DP (the budget DP is quadratic in
	// the number of initiators, which the partition objective drives
	// toward O(tree size)). Zero defaults to 128. Only relevant with
	// UseBudgetDP.
	MaxBudgetTreeSize int
	// Parallelism bounds the worker goroutines one detection fans out
	// across — infected components during extraction, cascade trees during
	// per-tree inference. Zero (or negative) means runtime.GOMAXPROCS(0);
	// 1 forces the serial path. Detections are bit-identical at every
	// setting; see the determinism test and the README Performance section.
	Parallelism int
	// Extraction overrides advanced forest-extraction knobs. Alpha, Mode,
	// PositiveOnly and Parallelism are controlled by RID itself and
	// ignored here.
	Extraction cascade.Config
	// Penalty overrides advanced penalized-DP knobs; Beta is taken from
	// the field above.
	Penalty isomit.PenaltyConfig
}

func (c RIDConfig) withDefaults() RIDConfig {
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	if c.MaxBudgetTreeSize == 0 {
		c.MaxBudgetTreeSize = 128
	}
	return c
}

// RID is the paper's Rumor Initiator Detector: infected connected
// components → maximum-likelihood cascade forest → per-tree dynamic
// programming with the β penalty → initiator identities and states.
type RID struct {
	cfg RIDConfig
}

// NewRID validates the configuration and returns the detector.
func NewRID(cfg RIDConfig) (*RID, error) {
	cfg = cfg.withDefaults()
	if cfg.Alpha < 1 {
		return nil, fmt.Errorf("core: Alpha must be >= 1, got %g", cfg.Alpha)
	}
	if cfg.Beta < 0 {
		return nil, fmt.Errorf("core: Beta must be non-negative, got %g", cfg.Beta)
	}
	return &RID{cfg: cfg}, nil
}

// Name implements Detector.
func (r *RID) Name() string { return fmt.Sprintf("RID(%g)", r.cfg.Beta) }

// Detect implements Detector.
func (r *RID) Detect(snap *cascade.Snapshot) (*Detection, error) {
	return r.DetectContext(context.Background(), snap)
}

// DetectContext implements ContextDetector: the full RID pipeline with
// cooperative cancellation, checked between extraction and per-tree
// inference so a cancelled request stops paying for the remaining trees.
func (r *RID) DetectContext(ctx context.Context, snap *cascade.Snapshot) (*Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	forest, err := r.ExtractContext(ctx, snap)
	if err != nil {
		return nil, err
	}
	return r.DetectForestContext(ctx, forest)
}

// Extract runs the β-independent half of the pipeline — infected component
// detection and cascade-forest extraction — so callers sweeping β (or
// comparing objectives) can pay for it once and call DetectForest per
// setting.
func (r *RID) Extract(snap *cascade.Snapshot) (*cascade.Forest, error) {
	return r.ExtractContext(context.Background(), snap)
}

// ExtractContext is Extract under a context: an attached obs.Recorder
// collects the extraction stage timings and counters.
func (r *RID) ExtractContext(ctx context.Context, snap *cascade.Snapshot) (*cascade.Forest, error) {
	ext := r.cfg.Extraction
	ext.Alpha = r.cfg.Alpha
	ext.Mode = cascade.ModeBoosted
	ext.PositiveOnly = false
	ext.Parallelism = r.cfg.Parallelism
	return cascade.ExtractContext(ctx, snap, ext)
}

// DetectForest runs per-tree initiator inference over an already-extracted
// forest. The forest must come from Extract on a RID with the same Alpha
// and Extraction settings; the per-tree solvers only read β and the
// objective from this detector.
func (r *RID) DetectForest(forest *cascade.Forest) (*Detection, error) {
	return r.DetectForestContext(context.Background(), forest)
}

// DetectForestContext is DetectForest with cooperative cancellation,
// checked before every per-tree solve: large snapshots decompose into many
// trees, so a cancelled deadline aborts within one tree's work.
//
// Trees are solved concurrently across cfg.Parallelism workers (zero =
// GOMAXPROCS). Every tree's result lands in an index-addressed slot and is
// merged in tree order afterward, so the Detection — initiators, states,
// confidences, DP-cell counts — is bit-identical to the serial path. The
// per-tree solvers are pure functions of their tree (see internal/isomit),
// which is what makes the fan-out safe.
func (r *RID) DetectForestContext(ctx context.Context, forest *cascade.Forest) (*Detection, error) {
	det := &Detection{Trees: len(forest.Trees), Components: forest.Components}
	rec := obs.RecorderFrom(ctx) // nil-safe; resolved once, not per tree
	type treeOut struct {
		res    *isomit.Result
		solved *cascade.Tree
	}
	workers := par.Workers(r.cfg.Parallelism)
	outs := make([]treeOut, len(forest.Trees))
	accs := make([]*obs.Accum, workers)
	// One region-level stage label covers the whole per-tree solve fan-out
	// (binarize included — it is a sliver of the DP): the par workers
	// inherit it at spawn, and per-tree label switching would put a
	// label-set copy on the hot loop. The per-tree Accum spans below time
	// the region, so the label records no span of its own.
	defer obs.LabelStage(ctx, obs.StageTreeDP).End()
	err := par.ForEach(ctx, workers, len(forest.Trees), func(w, i int) error {
		acc := accs[w]
		if acc == nil {
			acc = rec.NewAccum()
			accs[w] = acc
		}
		res, solved, err := r.solveTree(forest.Trees[i], acc)
		outs[i] = treeOut{res: res, solved: solved}
		return err
	})
	for _, acc := range accs {
		acc.Flush()
	}
	if err != nil {
		return nil, err
	}

	size := 0
	for _, out := range outs {
		size += len(out.res.Initiators)
	}
	if size > 0 { // keep nil slices nil, as the pre-sized serial path did
		det.Initiators = make([]int, 0, size)
		det.States = make([]sgraph.State, 0, size)
		det.Confidence = make([]float64, 0, size)
	}
	var dpCells int64
	for _, out := range outs {
		res, solved := out.res, out.solved
		dpCells += res.Cells
		det.Initiators = append(det.Initiators, res.Initiators...)
		det.States = append(det.States, res.States...)
		// res.Local indexes the tree the solver actually ran on (possibly
		// the binarized transform).
		for _, local := range res.Local {
			if local == solved.Root() {
				// A root has no candidate activator at all: certain.
				det.Confidence = append(det.Confidence, 1)
			} else {
				// A cut point's confidence is the improbability of the
				// activation link it severs.
				det.Confidence = append(det.Confidence, 1-solved.Score[local])
			}
		}
	}
	sortDetection(det)
	if slog.Default().Enabled(ctx, slog.LevelDebug) {
		slog.LogAttrs(ctx, slog.LevelDebug, "rid: forest solved",
			slog.String("trace_id", obs.TraceID(ctx)),
			slog.String("detector", r.Name()),
			slog.Int("components", det.Components),
			slog.Int("trees", det.Trees),
			slog.Int("initiators", len(det.Initiators)),
			slog.Int64("dp_cells", dpCells))
	}
	return det, nil
}

// solveTree runs the configured per-tree solver and also returns the tree
// the result's local IDs refer to (the binarized transform for the budget
// DP, the input tree otherwise). acc (which may be nil) is the calling
// worker's local batch for the binarize / tree_dp stage timings and the
// budget-fallback counter; the fan-out flushes it at stage end.
func (r *RID) solveTree(tree *cascade.Tree, acc *obs.Accum) (*isomit.Result, *cascade.Tree, error) {
	if r.cfg.Objective == ObjectiveLocal {
		lambda := 0.0 // default: −log of the extraction inconsistency floor
		if f := r.cfg.Extraction.InconsistentFloor; f > 0 {
			lambda = -math.Log(f)
		}
		span := acc.Start(obs.StageTreeDP)
		res, err := isomit.Solve(tree, isomit.Options{Mode: isomit.ModeLocal, Beta: r.cfg.Beta, Lambda: lambda})
		span.End()
		countISOMIT(acc.CS(), isomit.ModeLocal, res)
		return res, tree, err
	}
	if r.cfg.UseBudgetDP && tree.Len() <= r.cfg.MaxBudgetTreeSize {
		span := acc.Start(obs.StageBinarize)
		bin := tree.Binarize()
		span.End()
		var (
			res *isomit.Result
			err error
		)
		mode := isomit.ModeAuto
		if r.cfg.BranchStates {
			mode = isomit.ModeAutoStates
		}
		span = acc.Start(obs.StageTreeDP)
		res, err = isomit.Solve(bin, isomit.Options{Mode: mode, Beta: r.cfg.Beta})
		span.End()
		countISOMIT(acc.CS(), mode, res)
		return res, bin, err
	}
	if r.cfg.UseBudgetDP {
		// Budget DP requested but the tree exceeds MaxBudgetTreeSize.
		if cs := acc.CS(); cs != nil {
			cs.ISOMIT.BudgetFallbacks++
		}
	}
	span := acc.Start(obs.StageTreeDP)
	res, err := isomit.Solve(tree, isomit.Options{
		Mode:         isomit.ModePenalized,
		Beta:         r.cfg.Beta,
		QMin:         r.cfg.Penalty.QMin,
		MaxAncestors: r.cfg.Penalty.MaxAncestors,
	})
	span.End()
	countISOMIT(acc.CS(), isomit.ModePenalized, res)
	return res, tree, err
}

// countISOMIT folds one per-tree solve into the worker's typed counter
// batch: which DP mode ran, its cell count, and — for the auto modes —
// how many budget values the k-selection loop tried. No-op when cs is nil
// (no recorder attached) or the solve failed.
func countISOMIT(cs *obs.CounterSet, mode isomit.Mode, res *isomit.Result) {
	if cs == nil || res == nil {
		return
	}
	switch mode {
	case isomit.ModeLocal:
		cs.ISOMIT.LocalSolves++
	case isomit.ModePenalized:
		cs.ISOMIT.PenalizedSolves++
	case isomit.ModeBudget:
		cs.ISOMIT.BudgetSolves++
	case isomit.ModeBudgetStates:
		cs.ISOMIT.BudgetStateSolves++
	case isomit.ModeAuto:
		cs.ISOMIT.BudgetSolves++
		cs.ISOMIT.AutoRounds += int64(res.KTried)
	case isomit.ModeAutoStates:
		cs.ISOMIT.BudgetStateSolves++
		cs.ISOMIT.AutoRounds += int64(res.KTried)
	}
	cs.ISOMIT.DPCells += res.Cells
}

// sortDetection orders initiators ascending, keeping the parallel slices
// aligned.
func sortDetection(det *Detection) {
	if len(det.States) != 0 && len(det.States) != len(det.Initiators) {
		panic("core: states misaligned with initiators")
	}
	if len(det.Confidence) != 0 && len(det.Confidence) != len(det.Initiators) {
		panic("core: confidence misaligned with initiators")
	}
	idx := make([]int, len(det.Initiators))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return det.Initiators[idx[a]] < det.Initiators[idx[b]] })
	ini := make([]int, len(idx))
	var sts []sgraph.State
	if det.States != nil {
		sts = make([]sgraph.State, len(idx))
	}
	var conf []float64
	if det.Confidence != nil {
		conf = make([]float64, len(idx))
	}
	for i, j := range idx {
		ini[i] = det.Initiators[j]
		if sts != nil {
			sts[i] = det.States[j]
		}
		if conf != nil {
			conf[i] = det.Confidence[j]
		}
	}
	det.Initiators = ini
	det.States = sts
	det.Confidence = conf
}
