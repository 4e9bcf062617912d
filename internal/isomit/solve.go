// Package isomit solves the paper's ISOMIT problem on extracted cascade
// trees. Solve is the one entry point, and Mode picks the per-tree solver:
//
//   - ModeLocal, the production default, is the Markov (one-hop)
//     log-likelihood form of the objective; its exact optimum is an O(n)
//     threshold rule.
//   - ModePenalized optimizes the paper's final per-tree objective
//     min −OPT(u,I,S,k) + (k−1)·β exactly, in linear-ish time, using the
//     partition semantics the paper states ("the detected cascade tree can
//     actually be partitioned into several isolated sub-trees").
//   - ModeBudget and ModeBudgetStates are the k-ISOMIT-BT dynamic program
//     of Section III-D for a fixed number of initiators on binarized trees,
//     the second with the ±1 initiator-state branch kept explicit.
//   - ModeAuto and ModeAutoStates wrap them in the incremental k-selection
//     loop of Section III-E3.
//
// The exact references live in this package's tests, not in the build: the
// Section III-B path-product likelihood (G, NodeProbability,
// NetworkLogLikelihood), the exhaustive general-graph solver ExactSmall,
// and the BruteForce* enumerators that check every tree DP.
//
// Every solver in this package is reentrant: all DP tables, memo maps and
// recursion state are allocated per call, and the only package-level
// variable (defaultLambda) is read-only configuration. The detection
// pipeline relies on this to solve trees concurrently
// (core.RIDConfig.Parallelism).
package isomit

import (
	"fmt"

	"repro/internal/cascade"
)

// Mode selects which per-tree initiator solver Solve runs. The solvers
// share the Result contract but differ in objective and cost; see the
// constants for the trade-offs.
type Mode int

const (
	// ModeLocal is the Markov (one-hop) log-likelihood threshold rule:
	// exact, O(n), scale-free in tree depth. Uses Beta and Lambda (zero
	// Lambda means −ln 1e-12, the default inconsistent-link floor). The
	// production default.
	ModeLocal Mode = iota
	// ModePenalized is the exact DP on the paper's partition objective
	// −OPT + (k−1)·β over all k simultaneously. Uses Beta, QMin,
	// MaxAncestors (zero values take the PenaltyConfig defaults).
	ModePenalized
	// ModeBudget is the k-ISOMIT-BT budgeted DP (Section III-D) for
	// exactly K initiators on a binary tree. Uses K.
	ModeBudget
	// ModeBudgetStates is ModeBudget with the ±1 initiator-state branch
	// kept explicit. Uses K.
	ModeBudgetStates
	// ModeAuto runs the paper's incremental k-selection loop (Section
	// III-E3) over ModeBudget. Uses Beta.
	ModeAuto
	// ModeAutoStates is ModeAuto over ModeBudgetStates. Uses Beta.
	ModeAutoStates
)

// String names the mode for logs and error messages.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModePenalized:
		return "penalized"
	case ModeBudget:
		return "budget"
	case ModeBudgetStates:
		return "budget-states"
	case ModeAuto:
		return "auto"
	case ModeAutoStates:
		return "auto-states"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options parameterizes Solve. Only the fields the selected Mode reads
// are consulted; the rest are ignored, so a caller can fill one Options
// and flip Mode.
type Options struct {
	// Mode selects the solver; the zero value is ModeLocal.
	Mode Mode
	// Beta is the per-extra-initiator penalty β ∈ [0, 1] of Section
	// III-E3. Read by ModeLocal, ModePenalized, ModeAuto, ModeAutoStates.
	Beta float64
	// Lambda normalizes β for ModeLocal; zero means −ln 1e-12.
	Lambda float64
	// K is the exact initiator budget for ModeBudget and ModeBudgetStates.
	K int
	// QMin and MaxAncestors bound the ModePenalized DP; zero values take
	// the PenaltyConfig defaults (1e-12 and 64).
	QMin         float64
	MaxAncestors int
}

// Solve runs the selected per-tree initiator solver on t — the single
// entry point to the per-mode solvers. An out-of-range Mode is an error,
// not a panic, since mode often arrives from config.
func Solve(t *cascade.Tree, opts Options) (*Result, error) {
	switch opts.Mode {
	case ModeLocal:
		return solveLocal(t, opts.Beta, opts.Lambda)
	case ModePenalized:
		return solvePenalized(t, PenaltyConfig{Beta: opts.Beta, QMin: opts.QMin, MaxAncestors: opts.MaxAncestors})
	case ModeBudget:
		return solveBudget(t, opts.K)
	case ModeBudgetStates:
		return solveBudgetStates(t, opts.K)
	case ModeAuto:
		return autoSearch(t, opts.Beta, solveBudget)
	case ModeAutoStates:
		return autoSearch(t, opts.Beta, solveBudgetStates)
	default:
		return nil, fmt.Errorf("isomit: unknown mode %s", opts.Mode)
	}
}
