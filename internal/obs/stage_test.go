package obs

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
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

// TestStageSwitchesPprofLabel checks each stage-opening call: inside the
// span the goroutine carries the stage label on top of the request's
// labels, and End puts the request's labels back. Stage and Accum.Stage
// also time the span; LabelStage does not.
func TestStageSwitchesPprofLabel(t *testing.T) {
	base := pprof.WithLabels(context.Background(), pprof.Labels("route", "detect"))
	pprof.SetGoroutineLabels(base)
	defer pprof.SetGoroutineLabels(context.Background())
	rec := NewRecorder()
	ctx := WithRecorder(base, rec)
	acc := rec.NewAccum()
	var nilAcc *Accum

	const outside = `{"route":"detect"}`
	for _, tc := range []struct {
		name  string
		open  func() Span
		stage string
	}{
		{"Stage", func() Span { return Stage(ctx, StageComponents) }, StageComponents},
		{"Accum.Stage", func() Span { return acc.Stage(ctx, StageArborescence) }, StageArborescence},
		{"nil Accum.Stage", func() Span { return nilAcc.Stage(ctx, StageTreeBuild) }, StageTreeBuild},
		{"LabelStage", func() Span { return LabelStage(ctx, StageTreeDP) }, StageTreeDP},
	} {
		span := tc.open()
		want := `{"route":"detect", "stage":"` + tc.stage + `"}`
		if got := goroutineLabels(t); got != want {
			t.Errorf("%s: labels inside = %s, want %s", tc.name, got, want)
		}
		span.End()
		if got := goroutineLabels(t); got != outside {
			t.Errorf("%s: labels after End = %s, want %s", tc.name, got, outside)
		}
	}
	acc.Flush()
	stages := rec.Stages()
	if stages[StageComponents].Count != 1 || stages[StageArborescence].Count != 1 {
		t.Errorf("Stage/Accum.Stage spans not recorded: %v", stages)
	}
	if _, ok := stages[StageTreeDP]; ok {
		t.Errorf("LabelStage recorded a span: %v", stages)
	}
}
