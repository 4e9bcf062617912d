// Command mfcsim simulates rumor diffusion over a signed network under any
// registered diffusion model and prints the spread curve, opinion mixture
// and flip statistics — the quickest way to see how the asymmetric boosting
// and flipping of MFC change propagation compared to the classical and
// signed-network models. -model enumerates whatever the diffusion registry
// holds (currently ic, lt, mfc, pushpull, sir, voter), so a newly
// registered model shows up here with no CLI change.
//
// Usage:
//
//	mfcsim [-dataset Epinions] [-scale 0.02] [-model all|<registered name>]
//	       [-alpha 3] [-n 0] [-seed-frac 0.01] [-theta 0.5] [-rounds 30]
//	       [-sir-beta 2] [-sir-gamma 0.3] [-seed 1]
//	       [-curves] [-progress] [-log-level info] [-log-format text]
//
// -progress streams one line per propagation round (round number, newly
// infected, cumulative infected, flips) for models that report progress.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/sgraph"
	"repro/internal/viz"
	"repro/internal/xrand"
)

func main() {
	var (
		ds       = flag.String("dataset", "Epinions", "network preset: Epinions or Slashdot")
		scale    = flag.Float64("scale", 0.02, "preset scale in (0,1]")
		model    = flag.String("model", "all", "diffusion model: all or one of "+strings.Join(diffusion.Models(), ", "))
		alpha    = flag.Float64("alpha", 3, "MFC boosting coefficient")
		n        = flag.Int("n", 0, "number of initiators (0 = seed-frac * nodes)")
		seedFrac = flag.Float64("seed-frac", 0.01, "initiators as a fraction of nodes when -n is 0")
		theta    = flag.Float64("theta", 0.5, "positive ratio of initiator states")
		rounds   = flag.Int("rounds", 30, "rounds for the voter model")
		sirBeta  = flag.Float64("sir-beta", 2, "SIR infection multiplier")
		sirGamma = flag.Float64("sir-gamma", 0.3, "SIR per-round recovery probability")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		curves   = flag.Bool("curves", true, "print spread curves as sparklines")
		progress = flag.Bool("progress", false, "print per-round progress (newly infected, cumulative, flips)")
		logCfg   = cli.LogFlags()
	)
	flag.Parse()
	cli.NoPositionalArgs("mfcsim")
	if err := logCfg.Setup(); err != nil {
		cli.Fatal("mfcsim", err)
	}
	slog.Info("mfcsim: starting", "seed", *seed, "model", *model, "dataset", *ds)
	params := map[string]diffusion.Params{
		"mfc":   {"alpha": *alpha},
		"sir":   {"beta": *sirBeta, "gamma": *sirGamma},
		"voter": {"rounds": *rounds},
	}
	if err := run(*ds, *scale, *model, params, *n, *seedFrac, *theta, *seed, *curves, *progress); err != nil {
		cli.Fatal("mfcsim", err)
	}
}

func run(ds string, scale float64, model string, params map[string]diffusion.Params, n int, seedFrac, theta float64, seed uint64, curves, progress bool) error {
	rng := xrand.New(seed)
	g, err := dataset.Load(ds, scale, rng)
	if err != nil {
		return err
	}
	dif := g.Reverse()
	st := g.Stats()
	fmt.Printf("network: %s %d nodes, %d links (%.1f%% positive)\n", ds, st.Nodes, st.Edges, 100*st.PositiveRatio)
	if n == 0 {
		n = int(seedFrac * float64(dif.NumNodes()))
		if n < 1 {
			n = 1
		}
	}
	seeds, states, err := diffusion.SampleInitiators(dif.NumNodes(), n, theta, rng)
	if err != nil {
		return err
	}
	fmt.Printf("seeds: %d initiators, θ=%.2f\n\n", n, theta)
	fmt.Printf("%-8s %9s %9s %9s %8s %8s\n", "model", "infected", "pos", "neg", "flips", "rounds")

	names := diffusion.Models()
	if model != "all" {
		if _, err := diffusion.Lookup(model); err != nil {
			return cli.Usagef("%v", err)
		}
		names = []string{model}
	}
	for _, name := range names {
		m, err := diffusion.Lookup(name)
		if err != nil {
			return err
		}
		if err := m.Validate(params[name]); err != nil {
			return err
		}
		if progress {
			if pr, ok := m.(diffusion.ProgressReporter); ok {
				pr.SetOnRound(func(p diffusion.RoundProgress) {
					fmt.Printf("         %s round %3d: +%d newly infected, %d cumulative, %d flips\n",
						name, p.Round, p.NewlyInfected, p.CumInfected, p.Flips)
				})
			}
		}
		c, err := m.Run(dif, seeds, states, rng.Split())
		if err != nil {
			return err
		}
		pos, neg := 0, 0
		for _, s := range c.States {
			switch s {
			case sgraph.StatePositive:
				pos++
			case sgraph.StateNegative:
				neg++
			}
		}
		fmt.Printf("%-8s %9d %9d %9d %8d %8d\n", name, c.NumInfected(), pos, neg, c.Flips, c.Rounds)
		if curves {
			curve := c.SpreadCurve()
			series := make([]float64, len(curve))
			for i, v := range curve {
				series[i] = float64(v)
			}
			fmt.Printf("         spread %s (%d -> %d over %d rounds)\n",
				viz.Spark(series), curve[0], curve[len(curve)-1], len(curve)-1)
		}
	}
	return nil
}
