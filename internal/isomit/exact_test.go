package isomit

import (
	"fmt"
	"math"
	"testing"

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
	return best, nil
}

func TestExactSmallChain(t *testing.T) {
	// 0 -+(1.0)-> 1 -+(1.0)-> 2, all +1: a single initiator at the root
	// explains everything with probability 1.
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, 1)
	b.AddEdge(1, 2, sgraph.Positive, 1)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive)
	res, err := ExactSmall(g, states, ExactConfig{Beta: 1, Paths: PathOpts{Alpha: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Initiators) != 1 || res.Initiators[0] != 0 {
		t.Errorf("initiators = %v, want [0]", res.Initiators)
	}
	if res.LogLikelihood != 0 {
		t.Errorf("logL = %g, want 0 (probability 1)", res.LogLikelihood)
	}
	if res.States[0] != sgraph.StatePositive {
		t.Errorf("state = %v", res.States[0])
	}
}

func TestExactSmallTwoIslands(t *testing.T) {
	// Two disconnected infected pairs: at least two initiators needed for
	// finite likelihood; exact must find exactly two despite the penalty.
	b := sgraph.NewBuilder(4)
	b.AddEdge(0, 1, sgraph.Positive, 0.9)
	b.AddEdge(2, 3, sgraph.Negative, 0.8)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive, sgraph.StateNegative)
	res, err := ExactSmall(g, states, ExactConfig{Beta: 2, Paths: PathOpts{Alpha: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Initiators) != 2 {
		t.Fatalf("initiators = %v, want two roots", res.Initiators)
	}
	if res.Initiators[0] != 0 || res.Initiators[1] != 2 {
		t.Errorf("initiators = %v, want [0 2]", res.Initiators)
	}
}

func TestExactSmallUnknownStateBranch(t *testing.T) {
	// Unknown-state root with a negative link to a +1 child: the root's
	// assumed state must be -1 for the snapshot to be possible.
	b := sgraph.NewBuilder(2)
	b.AddEdge(0, 1, sgraph.Negative, 0.9)
	g := b.MustBuild()
	states := statesOf(sgraph.StateUnknown, sgraph.StatePositive)
	res, err := ExactSmall(g, states, ExactConfig{Beta: 5, Paths: PathOpts{Alpha: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Initiators) == 1 {
		if res.Initiators[0] != 0 || res.States[0] != sgraph.StateNegative {
			t.Errorf("got %v/%v, want root 0 with state -1", res.Initiators, res.States)
		}
		if math.Abs(res.LogLikelihood-math.Log(0.9)) > 1e-9 {
			t.Errorf("logL = %g, want log 0.9", res.LogLikelihood)
		}
	} else if len(res.Initiators) != 2 {
		t.Errorf("initiators = %v", res.Initiators)
	}
}

func TestExactSmallPenaltyControlsK(t *testing.T) {
	// Weak chain: with zero penalty every node becomes an initiator
	// (probability 1 each); with a harsh one, fewer.
	b := sgraph.NewBuilder(3)
	b.AddEdge(0, 1, sgraph.Positive, 0.1)
	b.AddEdge(1, 2, sgraph.Positive, 0.1)
	g := b.MustBuild()
	states := statesOf(sgraph.StatePositive, sgraph.StatePositive, sgraph.StatePositive)
	free, err := ExactSmall(g, states, ExactConfig{Beta: 0, Paths: PathOpts{Alpha: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Initiators) != 3 {
		t.Errorf("β=0 initiators = %v, want all 3", free.Initiators)
	}
	harsh, err := ExactSmall(g, states, ExactConfig{Beta: 100, Paths: PathOpts{Alpha: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(harsh.Initiators) != 1 {
		t.Errorf("β=100 initiators = %v, want 1", harsh.Initiators)
	}
}

func TestExactSmallEvaluationCountGrowsExponentially(t *testing.T) {
	// The NP-hardness in practice: candidate count doubles per node.
	counts := make([]int, 0, 3)
	for _, n := range []int{4, 6, 8} {
		b := sgraph.NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(i, i+1, sgraph.Positive, 0.5)
		}
		g := b.MustBuild()
		states := make([]sgraph.State, n)
		for i := range states {
			states[i] = sgraph.StatePositive
		}
		res, err := ExactSmall(g, states, ExactConfig{Beta: 1, Paths: PathOpts{Alpha: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != 1<<n-1 {
			t.Errorf("n=%d evaluated %d, want %d", n, res.Evaluated, 1<<n-1)
		}
		counts = append(counts, res.Evaluated)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Errorf("evaluation counts not growing: %v", counts)
	}
}

func TestExactSmallValidation(t *testing.T) {
	g := sgraph.NewBuilder(2).MustBuild()
	if _, err := ExactSmall(g, statesOf(sgraph.StatePositive), ExactConfig{}); err == nil {
		t.Error("state length mismatch should error")
	}
	if _, err := ExactSmall(g, statesOf(sgraph.StateInactive, sgraph.StateInactive), ExactConfig{}); err == nil {
		t.Error("no infected should error")
	}
	big := sgraph.NewBuilder(20).MustBuild()
	states := make([]sgraph.State, 20)
	for i := range states {
		states[i] = sgraph.StatePositive
	}
	if _, err := ExactSmall(big, states, ExactConfig{}); err == nil {
		t.Error("oversized instance should error")
	}
	if _, err := ExactSmall(g, statesOf(sgraph.StatePositive, sgraph.StateInactive), ExactConfig{Beta: -1}); err == nil {
		t.Error("negative beta should error")
	}
}
