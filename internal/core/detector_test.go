package core

import (
	"slices"
	"testing"

	"repro/internal/sgraph"
)

// TestDetectionOrder pins the one rank order every consumer uses (the
// served initiator lists and precision@k): descending confidence, ties and
// unscored detections by ascending node ID, whatever order the parallel
// slices arrive in.
func TestDetectionOrder(t *testing.T) {
	scored := &Detection{
		Initiators: []int{9, 4, 7, 2, 5},
		States:     []sgraph.State{1, -1, 1, -1, 1},
		Confidence: []float64{0.5, 1, 0.5, 0.25, 1},
	}
	if got, want := scored.Order(), []int{1, 4, 2, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("scored Order = %v, want %v", got, want)
	}
	if got, want := scored.Ranked(), []int{4, 5, 7, 9, 2}; !slices.Equal(got, want) {
		t.Errorf("scored Ranked = %v, want %v", got, want)
	}

	unscored := &Detection{Initiators: []int{8, 3, 6}}
	if got, want := unscored.Order(), []int{1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("unscored Order = %v, want %v", got, want)
	}
	if got, want := unscored.Ranked(), []int{3, 6, 8}; !slices.Equal(got, want) {
		t.Errorf("unscored Ranked = %v, want %v", got, want)
	}

	if got := (&Detection{}).Order(); len(got) != 0 {
		t.Errorf("empty Order = %v", got)
	}
}
