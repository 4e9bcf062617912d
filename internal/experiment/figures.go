package experiment

import (
	"fmt"
	"io"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/viz"
	"repro/internal/xrand"
)

// TableIIResult reproduces Table II over the synthetic stand-ins.
type TableIIResult struct {
	Scale float64
	Rows  []dataset.TableIIRow
}

// TableII regenerates the paper's Table II at the given scale.
func TableII(scale float64, seed uint64) (*TableIIResult, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiment: scale must be in (0,1], got %g", scale)
	}
	rng := xrand.New(seed)
	var sources []dataset.Source
	for _, p := range gen.Presets() {
		g, err := dataset.Load(p.Name, scale, rng)
		if err != nil {
			return nil, err
		}
		sources = append(sources, dataset.Source{Name: p.Name, Graph: g})
	}
	return &TableIIResult{Scale: scale, Rows: dataset.TableII(sources)}, nil
}

// Render writes the Table II rows as text.
func (r *TableIIResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Table II — network properties (scale %.3g)\n", r.Scale)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %8s\n", "network", "# nodes", "# links", "link type", "pos%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10d %10d %10s %7.1f%%\n",
			row.Network, row.Nodes, row.Links, row.LinkType, 100*row.PositiveRatio)
	}
}

// Figure4Result holds one network's panel of Figure 4.
type Figure4Result struct {
	Workload Workload
	Infected metrics.Summary
	Rows     []MethodScore
}

// Figure4 reproduces Figure 4 for one network: precision, recall and F1 of
// RID(0.09), RID(0.1), RID-Tree and RID-Positive (plus the beyond-paper
// rumor-centrality comparator), averaged over the workload's trials.
func Figure4(w Workload) (*Figure4Result, error) {
	w = w.withDefaults()
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	detectors, err := figure4Detectors(w)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Workload: w}
	var infected []float64
	for _, in := range instances {
		infected = append(infected, float64(in.Infected))
	}
	res.Infected = metrics.Summarize(infected)
	for _, d := range detectors {
		ms, err := evalDetector(d, instances)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ms)
	}
	return res, nil
}

func figure4Detectors(w Workload) ([]core.Detector, error) {
	rid009, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: 0.09, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	rid01, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: 0.1, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	tree, err := core.NewRIDTree(w.Alpha)
	if err != nil {
		return nil, err
	}
	return []core.Detector{
		rid009, rid01, tree, core.RIDPositive{},
		// The one beyond-paper comparator from the rumor-source literature.
		core.RumorCentrality{},
	}, nil
}

// Render writes the Figure 4 panel as text.
func (r *Figure4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4 — %s (scale %.3g, N=%.3g%%, θ=%.2g, α=%g, trials=%d, infected=%s)\n",
		r.Workload.Dataset, r.Workload.Scale, 100*r.Workload.SeedFraction,
		r.Workload.Theta, r.Workload.Alpha, r.Workload.Trials, r.Infected)
	fmt.Fprintf(w, "%-16s %12s %18s %18s %18s   %s\n", "method", "detected", "precision", "recall", "F1", "F1 chart")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %12.1f %18s %18s %18s   %s\n",
			row.Method, row.Detected.Mean, row.Precision, row.Recall, row.F1,
			viz.Bar(row.F1.Mean, 1, 24))
	}
}

// SweepResult holds Figure 5's β sweep for one network: detected-initiator
// counts and identity quality per β.
type SweepResult struct {
	Workload Workload
	Betas    []float64
	Rows     []MethodScore // one per β, Method = "RID(β)"
}

// Figure5 reproduces Figure 5 for one network: RID detection quality as a
// function of β.
func Figure5(w Workload, betas []float64) (*SweepResult, error) {
	w = w.withDefaults()
	if len(betas) == 0 {
		betas = DefaultBetas()
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Workload: w, Betas: betas}
	// Extraction is β-independent: pay for it once per instance.
	forests, err := extractAll(w, instances)
	if err != nil {
		return nil, err
	}
	for _, beta := range betas {
		rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
		if err != nil {
			return nil, err
		}
		var det, prec, rec, f1 []float64
		for i, in := range instances {
			d, err := rid.DetectForest(forests[i])
			if err != nil {
				return nil, err
			}
			id := metrics.EvalIdentity(d.Initiators, in.Seeds)
			det = append(det, float64(id.Detected))
			prec = append(prec, id.Precision)
			rec = append(rec, id.Recall)
			f1 = append(f1, id.F1)
		}
		res.Rows = append(res.Rows, MethodScore{
			Method:    rid.Name(),
			Detected:  metrics.Summarize(det),
			Precision: metrics.Summarize(prec),
			Recall:    metrics.Summarize(rec),
			F1:        metrics.Summarize(f1),
		})
	}
	return res, nil
}

// extractAll runs the β-independent forest extraction once per instance.
func extractAll(w Workload, instances []*Instance) ([]*cascade.Forest, error) {
	rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: 0, Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	out := make([]*cascade.Forest, len(instances))
	for i, in := range instances {
		out[i], err = rid.Extract(in.Snap)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DefaultBetas is the paper's Figure 5/6 sweep grid.
func DefaultBetas() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Render writes the Figure 5 series as text.
func (r *SweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — %s: detected rumor initiators vs β (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%6s %12s %18s %18s %18s   %s\n", "beta", "detected", "precision", "recall", "F1", "F1 chart")
	for i, beta := range r.Betas {
		row := r.Rows[i]
		fmt.Fprintf(w, "%6.2f %12.1f %18s %18s %18s   %s\n",
			beta, row.Detected.Mean, row.Precision, row.Recall, row.F1,
			viz.Bar(row.F1.Mean, 1, 24))
	}
}

// StateScore aggregates Figure 6's state-inference metrics at one β.
type StateScore struct {
	Beta     float64
	Compared metrics.Summary
	Accuracy metrics.Summary
	MAE      metrics.Summary
	R2       metrics.Summary
}

// StateSweepResult holds Figure 6 for one network.
type StateSweepResult struct {
	Workload Workload
	Rows     []StateScore
}

// Figure6 reproduces Figure 6 for one network: accuracy, MAE and R² of
// RID's initial-state inference over the correctly identified initiators,
// as a function of β.
func Figure6(w Workload, betas []float64) (*StateSweepResult, error) {
	w = w.withDefaults()
	if len(betas) == 0 {
		betas = DefaultBetas()
	}
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	res := &StateSweepResult{Workload: w}
	forests, err := extractAll(w, instances)
	if err != nil {
		return nil, err
	}
	for _, beta := range betas {
		rid, err := core.NewRID(core.RIDConfig{Alpha: w.Alpha, Beta: beta, Parallelism: w.Parallelism})
		if err != nil {
			return nil, err
		}
		var compared, acc, mae, r2 []float64
		for i, in := range instances {
			det, err := rid.DetectForest(forests[i])
			if err != nil {
				return nil, err
			}
			st, err := metrics.EvalStates(det.Initiators, det.States, in.Seeds, in.States)
			if err != nil {
				return nil, err
			}
			compared = append(compared, float64(st.Compared))
			if st.Compared > 0 {
				acc = append(acc, st.Accuracy)
				mae = append(mae, st.MAE)
				r2 = append(r2, st.R2)
			}
		}
		res.Rows = append(res.Rows, StateScore{
			Beta:     beta,
			Compared: metrics.Summarize(compared),
			Accuracy: metrics.Summarize(acc),
			MAE:      metrics.Summarize(mae),
			R2:       metrics.Summarize(r2),
		})
	}
	return res, nil
}

// Render writes the Figure 6 series as text.
func (r *StateSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 — %s: initial-state inference vs β (trials=%d)\n",
		r.Workload.Dataset, r.Workload.Trials)
	fmt.Fprintf(w, "%6s %10s %18s %18s %18s   %s\n", "beta", "compared", "accuracy", "MAE", "R2", "accuracy chart")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2f %10.1f %18s %18s %18s   %s\n",
			row.Beta, row.Compared.Mean, row.Accuracy, row.MAE, row.R2,
			viz.Bar(row.Accuracy.Mean, 1, 24))
	}
}
