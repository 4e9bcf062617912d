package experiment

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/viz"
	"repro/internal/xrand"
)

// ModelRow summarizes one registered diffusion model's behavior on the
// workload, aggregated over trials.
type ModelRow struct {
	Model         string
	Infected      metrics.Summary
	PositiveShare metrics.Summary // fraction of infected nodes with state +1
	Flips         metrics.Summary
	Exchanges     metrics.Summary
	Rounds        metrics.Summary
	// Curve is the first trial's spread curve (ever-infected per round),
	// kept for the sparkline comparison across models.
	Curve []int
}

// ModelComparisonResult compares spread across every registered diffusion
// model on one workload — same network, same seeds, same trial RNG
// derivation, only the model differs.
type ModelComparisonResult struct {
	Workload Workload
	Rows     []ModelRow
}

// ModelComparison runs each named registered model (all of them when
// models is nil) over the workload's trials. params maps model name to the
// model's Params blob; missing entries run the model's defaults, except
// mfc which inherits the workload's Alpha.
func ModelComparison(w Workload, models []string, params map[string]diffusion.Params) (*ModelComparisonResult, error) {
	w = w.withDefaults()
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		models = diffusion.Models()
	}
	res := &ModelComparisonResult{Workload: w}
	for _, name := range models {
		p := params[name]
		if p == nil && name == "mfc" {
			p = diffusion.Params{"alpha": w.Alpha}
		}
		row, err := modelRow(w, name, p)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func modelRow(w Workload, name string, params diffusion.Params) (ModelRow, error) {
	var infected, posShare, flips, exchanges, rounds []float64
	var curve []int
	for t := 0; t < w.Trials; t++ {
		rng := xrand.New(w.BaseSeed + uint64(t)*0x9e37)
		g, err := dataset.Load(w.Dataset, w.Scale, rng)
		if err != nil {
			return ModelRow{}, err
		}
		dif := g.Reverse()
		n := dif.NumNodes()
		count := int(w.SeedFraction * float64(n))
		if count < 1 {
			count = 1
		}
		seeds, states, err := diffusion.SampleInitiators(n, count, w.Theta, rng)
		if err != nil {
			return ModelRow{}, err
		}
		m, err := diffusion.Lookup(name)
		if err != nil {
			return ModelRow{}, err
		}
		if err := m.Validate(params); err != nil {
			return ModelRow{}, err
		}
		// The model name rides as a pprof label so a profiled run (the
		// experiments CLI under -profile, or this code path embedded in a
		// server) attributes each model's CPU separately.
		var c *diffusion.Cascade
		profiling.Do(context.Background(), func(ctx context.Context) {
			span := obs.Stage(ctx, obs.StageDiffusion)
			c, err = m.Run(dif, seeds, states, rng)
			span.End()
		}, profiling.LabelModel, name)
		if err != nil {
			return ModelRow{}, err
		}
		tot := c.NumInfected()
		pos := 0
		for _, s := range c.States {
			if s == 1 {
				pos++
			}
		}
		infected = append(infected, float64(tot))
		if tot > 0 {
			posShare = append(posShare, float64(pos)/float64(tot))
		}
		flips = append(flips, float64(c.Flips))
		exchanges = append(exchanges, float64(c.Exchanges))
		rounds = append(rounds, float64(c.Rounds))
		if t == 0 {
			curve = c.SpreadCurve()
		}
	}
	return ModelRow{
		Model:         name,
		Infected:      metrics.Summarize(infected),
		PositiveShare: metrics.Summarize(posShare),
		Flips:         metrics.Summarize(flips),
		Exchanges:     metrics.Summarize(exchanges),
		Rounds:        metrics.Summarize(rounds),
		Curve:         curve,
	}, nil
}

// Render writes the model comparison as text, one sparkline per model so
// the spread-curve shapes line up under each other.
func (r *ModelComparisonResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Model comparison — %s (scale %.3g, N=%.3g%%, θ=%.2f, trials=%d)\n",
		r.Workload.Dataset, r.Workload.Scale, 100*r.Workload.SeedFraction, r.Workload.Theta, r.Workload.Trials)
	fmt.Fprintf(w, "%-10s %12s %11s %10s %11s %8s\n",
		"model", "infected", "pos-share", "flips", "exchanges", "rounds")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %12.1f %11.3f %10.1f %11.1f %8.1f\n",
			row.Model, row.Infected.Mean, row.PositiveShare.Mean, row.Flips.Mean, row.Exchanges.Mean, row.Rounds.Mean)
		if len(row.Curve) > 0 {
			series := make([]float64, len(row.Curve))
			for i, v := range row.Curve {
				series[i] = float64(v)
			}
			fmt.Fprintf(w, "           spread %s (%d -> %d over %d rounds)\n",
				viz.Spark(series), row.Curve[0], row.Curve[len(row.Curve)-1], len(row.Curve)-1)
		}
	}
}
