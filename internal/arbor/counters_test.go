package arbor

import (
	"testing"

	"repro/internal/obs"
)

// cycleGraph returns a graph whose best in-edge picks form a 2-cycle that
// both kernels must contract before reaching the optimum.
func cycleGraph() (int, []Edge, int) {
	edges := []Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 10},
		{From: 2, To: 1, Weight: 10},
		{From: 0, To: 2, Weight: 1},
	}
	return 3, edges, 0
}

// TestSolverCounters pins the production Solver's counters and the
// oracle's own work counts on a graph that needs one contraction: both
// kernels stage the same edges and contract the same cycle, and only the
// oracle needs a second level to do it.
func TestSolverCounters(t *testing.T) {
	n, edges, root := cycleGraph()
	t.Run("tarjan", func(t *testing.T) {
		var cs obs.CounterSet
		var s Solver
		s.SetCounters(&cs)
		if _, _, err := s.MaxArborescence(n, edges, root); err != nil {
			t.Fatal(err)
		}
		a := cs.Arbor
		if a.TarjanSolves != 1 || a.HeapMelds == 0 || a.HeapPops == 0 {
			t.Fatalf("solve/heap counts: %+v", a)
		}
		if a.EdgesStaged != 4 || a.CyclesContracted != 1 {
			t.Fatalf("EdgesStaged = %d, CyclesContracted = %d, want 4 and 1", a.EdgesStaged, a.CyclesContracted)
		}

		// A second solve accumulates rather than overwrites.
		if _, _, err := s.MaxArborescence(n, edges, root); err != nil {
			t.Fatal(err)
		}
		if got := cs.Arbor.EdgesStaged; got != 8 {
			t.Fatalf("EdgesStaged after 2 solves = %d, want 8", got)
		}

		// Detaching stops counting without breaking solves.
		s.SetCounters(nil)
		if _, _, err := s.MaxArborescence(n, edges, root); err != nil {
			t.Fatal(err)
		}
		if got := cs.Arbor.EdgesStaged; got != 8 {
			t.Fatalf("detached solve still counted: EdgesStaged = %d", got)
		}

		// Re-attaching counts only the solves made while attached.
		s.SetCounters(&cs)
		if _, _, err := s.MaxArborescence(n, edges, root); err != nil {
			t.Fatal(err)
		}
		if got := cs.Arbor.EdgesStaged; got != 12 {
			t.Fatalf("re-attached solve: EdgesStaged = %d, want 12", got)
		}
	})
	t.Run("contract", func(t *testing.T) {
		var c contract
		if _, _, err := c.MaxArborescence(n, edges, root); err != nil {
			t.Fatal(err)
		}
		st := c.stats
		if st.edgesStaged != 4 || st.cyclesContracted != 1 {
			t.Fatalf("edgesStaged = %d, cyclesContracted = %d, want 4 and 1", st.edgesStaged, st.cyclesContracted)
		}
		if st.levels < 2 || st.edgeRescans == 0 {
			t.Fatalf("contract level counts: %+v", st)
		}
	})
}

func TestSolverCountersMaxForest(t *testing.T) {
	var cs obs.CounterSet
	var s Solver
	s.SetCounters(&cs)
	edges := []Edge{
		{From: 0, To: 1, Weight: 2},
		{From: 1, To: 0, Weight: 2},
	}
	if _, _, err := s.MaxForest(2, edges, -5); err != nil {
		t.Fatal(err)
	}
	if cs.Arbor.TarjanSolves != 1 {
		t.Fatalf("MaxForest should count one solve, got %+v", cs.Arbor)
	}
	// 2 real edges + 2 virtual root edges staged.
	if cs.Arbor.EdgesStaged != 4 {
		t.Fatalf("EdgesStaged = %d, want 4", cs.Arbor.EdgesStaged)
	}
}
