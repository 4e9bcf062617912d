package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sgraph"
)

var updateGolden = flag.Bool("update", false, "rewrite the paper-output golden fixture")

// paperGoldenDetection is one detector's pinned output on one workload.
type paperGoldenDetection struct {
	Detector   string         `json:"detector"`
	Initiators []int          `json:"initiators"`
	States     []sgraph.State `json:"states,omitempty"`
	F1         float64        `json:"f1"`
}

// paperGoldenCase is one fixed-seed MFC observation and what each RID
// variant detects on it.
type paperGoldenCase struct {
	Dataset    string                 `json:"dataset"`
	Seeds      int                    `json:"seeds"`
	Infected   int                    `json:"infected"`
	Detections []paperGoldenDetection `json:"detections"`
}

// paperGolden runs RID, RID-Tree and RID-Positive on a fixed-seed MFC
// observation of each scale-0.01 preset. ctx is handed to the detectors,
// so the instrumented (recorder-attached) path can be checked against the
// same fixture as the plain one.
func paperGolden(t *testing.T, ctx context.Context) []paperGoldenCase {
	t.Helper()
	var out []paperGoldenCase
	for _, dataset := range []string{"Epinions", "Slashdot"} {
		in, err := Workload{Dataset: dataset, Scale: 0.01, Trials: 1, BaseSeed: 11}.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := core.NewRID(core.RIDConfig{Alpha: 3, Beta: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.NewRIDTree(3)
		if err != nil {
			t.Fatal(err)
		}
		c := paperGoldenCase{Dataset: dataset, Seeds: len(in.Seeds), Infected: in.Infected}
		for _, d := range []core.Detector{rid, tree, core.RIDPositive{}} {
			det, err := core.DetectWithContext(ctx, d, in.Snap)
			if err != nil {
				t.Fatalf("%s on %s: %v", d.Name(), dataset, err)
			}
			c.Detections = append(c.Detections, paperGoldenDetection{
				Detector:   d.Name(),
				Initiators: det.Initiators,
				States:     det.States,
				F1:         metrics.EvalIdentity(det.Initiators, in.Seeds).F1,
			})
		}
		out = append(out, c)
	}
	return out
}

// TestPaperOutputGolden pins the paper-level outputs — detected
// initiators, their inferred states and identity F1 — of the three RID
// variants at a fixed seed, with and without an obs.Recorder attached.
// Refactors of the pipeline or its instrumentation must keep them
// bit-identical. Regenerate with: go test -run TestPaperOutputGolden
// -update ./internal/experiment/
func TestPaperOutputGolden(t *testing.T) {
	path := filepath.Join("testdata", "paper_golden.json")
	plain, err := json.MarshalIndent(paperGolden(t, context.Background()), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	plain = append(plain, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, plain, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(plain) != string(want) {
		t.Fatalf("paper outputs drifted from %s; diff the -update rewrite to see which", path)
	}
	traced, err := json.MarshalIndent(paperGolden(t, obs.WithRecorder(context.Background(), obs.NewRecorder())), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(traced, '\n')) != string(want) {
		t.Fatal("paper outputs with a recorder attached differ from the plain run")
	}
}
