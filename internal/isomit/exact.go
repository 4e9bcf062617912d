package isomit

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sgraph"
)

// ExactConfig bounds the exhaustive general-graph solver.
type ExactConfig struct {
	// Beta is the per-extra-initiator penalty, applied in log space as
	// (k−1)·Beta (callers wanting the paper's [0,1] axis pass β·Λ).
	Beta float64
	// MaxInfected caps the infected-set size the solver accepts; zero
	// defaults to 14 (2^14 subsets with path enumeration inside is
	// already seconds).
	MaxInfected int
	// Paths bounds the likelihood evaluation.
	Paths PathOpts
}

// ExactResult is the exhaustive optimum over initiator sets and states.
type ExactResult struct {
	Initiators []int
	States     []sgraph.State
	// LogLikelihood is log P(G_I | I, S); Objective subtracts the
	// penalty.
	LogLikelihood float64
	Objective     float64
	// Evaluated counts candidate (set, states) assignments scored — the
	// exponential blow-up Lemma 3.1 predicts, measurable directly.
	Evaluated int
}

// ExactSmall solves the ISOMIT problem on a general (small!) graph by
// enumerating every non-empty initiator subset of the infected nodes and,
// for unknown-state candidates, both initial states, scoring each with the
// full Section III-B network likelihood. Exponential by design — the
// problem is NP-hard (Lemma 3.1) — it exists as the ground truth the
// heuristics are compared against on tiny instances.
func ExactSmall(g *sgraph.Graph, states []sgraph.State, cfg ExactConfig) (*ExactResult, error) {
	return ExactSmallContext(context.Background(), g, states, cfg)
}

// cancelCheckInterval is how many enumeration steps the exponential solvers
// run between context checks — frequent enough that cancellation lands
// within microseconds, rare enough to stay off the profile.
const cancelCheckInterval = 256

// ExactSmallContext is ExactSmall with cooperative cancellation: the subset
// enumeration checks ctx periodically and returns ctx.Err() as soon as the
// deadline passes or the caller cancels, so a caller can bound the
// exponential solver with a deadline.
func ExactSmallContext(ctx context.Context, g *sgraph.Graph, states []sgraph.State, cfg ExactConfig) (*ExactResult, error) {
	if len(states) != g.NumNodes() {
		return nil, fmt.Errorf("isomit: %d states for %d nodes", len(states), g.NumNodes())
	}
	if cfg.Beta < 0 {
		return nil, fmt.Errorf("isomit: Beta must be non-negative, got %g", cfg.Beta)
	}
	maxInfected := cfg.MaxInfected
	if maxInfected == 0 {
		maxInfected = 14
	}
	var infected []int
	for v, s := range states {
		if s.Active() || s == sgraph.StateUnknown {
			infected = append(infected, v)
		}
	}
	if len(infected) == 0 {
		return nil, fmt.Errorf("isomit: no infected nodes")
	}
	if len(infected) > maxInfected {
		return nil, fmt.Errorf("isomit: %d infected nodes exceed ExactSmall cap %d", len(infected), maxInfected)
	}
	best := &ExactResult{Objective: math.Inf(1), LogLikelihood: math.Inf(-1)}
	evaluate := func(set []int, assign []sgraph.State) error {
		best.Evaluated++
		ll, err := NetworkLogLikelihood(g, states, set, assign, cfg.Paths)
		if err != nil {
			return err
		}
		obj := -ll + float64(len(set)-1)*cfg.Beta
		if obj < best.Objective {
			best.Objective = obj
			best.LogLikelihood = ll
			best.Initiators = append([]int(nil), set...)
			best.States = append([]sgraph.State(nil), assign...)
		}
		return nil
	}
	// Enumerate subsets; for each, enumerate states of unknown members.
	for mask := 1; mask < 1<<len(infected); mask++ {
		if mask%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var set []int
		var unknownIdx []int
		for i, v := range infected {
			if mask&(1<<i) == 0 {
				continue
			}
			set = append(set, v)
			if states[v] == sgraph.StateUnknown {
				unknownIdx = append(unknownIdx, len(set)-1)
			}
		}
		assign := make([]sgraph.State, len(set))
		for i, v := range set {
			if states[v] == sgraph.StateUnknown {
				assign[i] = sgraph.StatePositive // enumerated below
			} else {
				assign[i] = states[v]
			}
		}
		for sm := 0; sm < 1<<len(unknownIdx); sm++ {
			for b, idx := range unknownIdx {
				if sm&(1<<b) != 0 {
					assign[idx] = sgraph.StateNegative
				} else {
					assign[idx] = sgraph.StatePositive
				}
			}
			if err := evaluate(set, assign); err != nil {
				return nil, err
			}
		}
	}
	if math.IsInf(best.LogLikelihood, -1) && math.IsInf(best.Objective, 1) {
		return nil, fmt.Errorf("isomit: no assignment evaluated")
	}
	// Each scored (set, states) assignment is one cell of the exhaustive
	// "DP" — the exponential blow-up becomes visible on the same counter
	// the tree solvers report.
	obs.RecorderFrom(ctx).MergeCounterSet(&obs.CounterSet{
		ISOMIT: obs.ISOMITCounters{DPCells: int64(best.Evaluated)},
	})
	return best, nil
}
