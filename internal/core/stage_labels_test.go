package core

import (
	"bytes"
	"context"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/sgraph"
)

// goroutineLabels returns the calling goroutine's pprof labels as printed
// by a debug=1 goroutine profile ("" when it has none). The caller's stack
// is the one that contains the profile writer itself.
func goroutineLabels(t testing.TB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(block, "runtime/pprof.writeGoroutine") {
			continue
		}
		for _, line := range strings.Split(block, "\n") {
			if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
				return labels
			}
		}
		return ""
	}
	t.Fatal("calling goroutine not found in the goroutine profile")
	return ""
}

// labelProbe is a context that records the polling goroutine's pprof
// labels every time the pipeline checks it for cancellation, and cancels
// itself on poll number cancelAt (0 = never).
type labelProbe struct {
	context.Context
	t        *testing.T
	cancel   context.CancelFunc
	cancelAt int
	seen     []string
}

func (p *labelProbe) Err() error {
	p.seen = append(p.seen, goroutineLabels(p.t))
	if len(p.seen) == p.cancelAt {
		p.cancel()
	}
	return p.Context.Err()
}

// TestStageLabelsSetAndRestored drives the serial RID pipeline with a
// probing context: between component solves the goroutine carries only the
// request's labels, inside the tree-DP fan-out it carries stage=tree_dp,
// and after the detect returns — on success, on the ErrNoInfected error
// and on cancellation in either half — the request's labels are back.
func TestStageLabelsSetAndRestored(t *testing.T) {
	sim := simulate(t, 11, 400, 2400, 12)
	rid, err := NewRID(RIDConfig{Alpha: 3, Beta: 0.3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := cascade.NewSnapshot(sim.snap.G, make([]sgraph.State, sim.snap.G.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	base := pprof.WithLabels(context.Background(), pprof.Labels("route", "detect"))
	pprof.SetGoroutineLabels(base)
	defer pprof.SetGoroutineLabels(context.Background())
	const outside = `{"route":"detect"}`
	const inDP = `{"route":"detect", "stage":"tree_dp"}`

	run := func(snap *cascade.Snapshot, cancelAt int) (*labelProbe, error) {
		inner, cancel := context.WithCancel(base)
		defer cancel()
		probe := &labelProbe{Context: inner, t: t, cancel: cancel, cancelAt: cancelAt}
		_, err := rid.DetectContext(probe, snap)
		if got := goroutineLabels(t); got != outside {
			t.Errorf("cancelAt %d: labels after detect = %s, want %s", cancelAt, got, outside)
		}
		return probe, err
	}

	probe, err := run(sim.snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	firstDP := -1
	for i, labels := range probe.seen {
		switch {
		case labels == inDP && firstDP < 0:
			firstDP = i
		case labels == outside && firstDP < 0:
		case labels != inDP:
			t.Errorf("poll %d: labels = %s, want %s before the DP and %s inside it", i, labels, outside, inDP)
		}
	}
	// Poll 0 is DetectContext's up-front check; each component solve adds
	// one, so the extraction half needs two components for a mid-extraction
	// cancellation below.
	if firstDP < 3 {
		t.Fatalf("polls %v: want >= 3 before the tree-DP region", probe.seen)
	}

	if _, err := run(empty, 0); !errors.Is(err, cascade.ErrNoInfected) {
		t.Fatalf("empty snapshot: err = %v, want ErrNoInfected", err)
	}
	for _, cancelAt := range []int{3, firstDP + 1} {
		if _, err := run(sim.snap, cancelAt); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt %d: err = %v, want context.Canceled", cancelAt, err)
		}
	}
}
