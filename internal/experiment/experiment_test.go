package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// fastWorkload keeps experiment tests quick: ~1300 nodes, one trial.
func fastWorkload(dataset string) Workload {
	return Workload{Dataset: dataset, Scale: 0.01, Trials: 2, BaseSeed: 7}
}

func TestWorkloadValidation(t *testing.T) {
	bads := []Workload{
		{Scale: 2},
		{SeedFraction: 0.9},
		{Theta: 2},
		{Alpha: 0.5},
		{MaskFraction: 2},
		{Trials: -1},
	}
	for i, w := range bads {
		if err := w.withDefaults().validate(); err == nil {
			t.Errorf("workload %d should be invalid", i)
		}
		if _, err := w.Run(0); err == nil {
			t.Errorf("workload %d Run should fail", i)
		}
	}
}

func TestWorkloadRunDeterministic(t *testing.T) {
	w := fastWorkload("Epinions")
	a, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Infected != b.Infected || len(a.Seeds) != len(b.Seeds) {
		t.Fatal("same trial differs across runs")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("seed sets differ")
		}
	}
	c, err := w.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	same := a.Infected == c.Infected && len(a.Seeds) == len(c.Seeds)
	if same {
		for i := range a.Seeds {
			if a.Seeds[i] != c.Seeds[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different trials produced identical instances")
	}
}

func TestTableII(t *testing.T) {
	res, err := TableII(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r.Network] = true
		if r.Nodes <= 0 || r.Links <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !names["Epinions"] || !names["Slashdot"] {
		t.Errorf("missing networks: %v", names)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Epinions") {
		t.Error("render missing Epinions")
	}
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if _, err := TableII(0, 1); err == nil {
		t.Error("zero scale should error")
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := Figure4(fastWorkload("Epinions"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("methods = %d, want 5", len(res.Rows))
	}
	byName := map[string]MethodScore{}
	for _, r := range res.Rows {
		byName[r.Method] = r
	}
	tree, ok := byName["RID-Tree"]
	if !ok {
		t.Fatal("RID-Tree missing")
	}
	rid, ok := byName["RID(0.1)"]
	if !ok {
		t.Fatal("RID(0.1) missing")
	}
	// Paper's headline shape: perfect-precision baseline, RID trades
	// precision for recall and wins on F1.
	if tree.Precision.Mean < 0.9 {
		t.Errorf("RID-Tree precision = %g, want >= 0.9", tree.Precision.Mean)
	}
	if rid.Recall.Mean <= tree.Recall.Mean {
		t.Errorf("RID recall %g not above RID-Tree %g", rid.Recall.Mean, tree.Recall.Mean)
	}
	if rid.F1.Mean <= tree.F1.Mean {
		t.Errorf("RID F1 %g not above RID-Tree %g", rid.F1.Mean, tree.F1.Mean)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "RID-Positive") {
		t.Error("render missing RID-Positive")
	}
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5Shape(t *testing.T) {
	betas := []float64{0, 0.3, 1.0}
	res, err := Figure5(fastWorkload("Slashdot"), betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(betas) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(betas))
	}
	// Monotone shape: detections shrink and precision grows with β.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Detected.Mean > res.Rows[i-1].Detected.Mean {
			t.Errorf("detected increased from β=%.1f to β=%.1f", betas[i-1], betas[i])
		}
		if res.Rows[i].Precision.Mean+1e-9 < res.Rows[i-1].Precision.Mean {
			t.Errorf("precision dropped from β=%.1f to β=%.1f", betas[i-1], betas[i])
		}
		if res.Rows[i].Recall.Mean > res.Rows[i-1].Recall.Mean+1e-9 {
			t.Errorf("recall rose from β=%.1f to β=%.1f", betas[i-1], betas[i])
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6Shape(t *testing.T) {
	betas := []float64{0, 0.5, 1.0}
	res, err := Figure6(fastWorkload("Epinions"), betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(betas) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	first := res.Rows[0]
	// Paper's Figure 6 shape: accuracy improves and MAE falls as β grows.
	if last.Accuracy.Mean+1e-9 < first.Accuracy.Mean {
		t.Errorf("accuracy fell with β: %g -> %g", first.Accuracy.Mean, last.Accuracy.Mean)
	}
	if last.MAE.Mean > first.MAE.Mean+1e-9 {
		t.Errorf("MAE rose with β: %g -> %g", first.MAE.Mean, last.MAE.Mean)
	}
	if last.Accuracy.Mean < 0.8 {
		t.Errorf("accuracy at β=1 = %g, want >= 0.8", last.Accuracy.Mean)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestDiffusionAnalysisShape(t *testing.T) {
	res, err := DiffusionAnalysis(fastWorkload("Epinions"), []float64{1, 3, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MFC) != 3 {
		t.Fatalf("points = %d, want 3", len(res.MFC))
	}
	// Spread grows with α; MFC at α=3 spreads beyond IC.
	if res.MFC[2].Infected.Mean < res.MFC[0].Infected.Mean {
		t.Errorf("spread not growing with alpha: %g vs %g",
			res.MFC[0].Infected.Mean, res.MFC[2].Infected.Mean)
	}
	if res.MFC[1].Infected.Mean <= res.IC.Infected.Mean {
		t.Errorf("MFC(3) spread %g not above IC %g", res.MFC[1].Infected.Mean, res.IC.Infected.Mean)
	}
	if res.IC.Flips.Mean != 0 {
		t.Errorf("IC flips = %g, want 0", res.IC.Flips.Mean)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVUnsupported(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 42); err == nil {
		t.Error("unsupported type should error")
	}
}

func TestFigure4MaskedStates(t *testing.T) {
	w := fastWorkload("Epinions")
	w.MaskFraction = 0.3
	res, err := Figure4(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Method == "RID(0.1)" && row.F1.Mean == 0 {
			t.Error("masked workload broke RID completely")
		}
	}
}
