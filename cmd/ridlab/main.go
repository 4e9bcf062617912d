// Command ridlab runs the full ISOMIT pipeline once, end to end: load or
// generate a signed network (or replay a saved trace), simulate an MFC
// rumor outbreak, hand the snapshot to the configured detector and score
// the result against the ground truth.
//
// Usage:
//
//	ridlab [-dataset Epinions] [-file soc-sign.txt] [-load-trace t.json] [-scale 0.02]
//	       [-method rid|rid-tree|rid-positive|rumor-centrality|jordan-center|degree-max|ensemble]
//	       [-beta 0.3] [-alpha 3] [-n 0] [-seed-frac 0.05] [-theta 0.5]
//	       [-mask 0] [-seed 1] [-save-trace t.json] [-trace-format json|binary]
//	       [-dot out.dot] [-v]
//	       [-replay] [-replay-checks 10]
//	       [-log-level info] [-log-format text] [-cpuprofile f] [-memprofile f]
//
// With -file, a real SNAP signed edge list (optionally .gz) is loaded
// instead of the synthetic preset (weights re-derived via Jaccard, as in
// the paper). With -load-trace, a previously saved instance is replayed
// verbatim — network, snapshot and ground truth. Traces save as JSON or,
// with -trace-format binary, as the compact "RIDT" wire codec; loading
// auto-detects the format from the file's magic bytes.
//
// With -replay, the instance is linearized into a deterministic activation
// event stream (internal/ingest) and streamed through an incremental
// detection session; at -replay-checks evenly spaced prefixes the
// incremental result is asserted bit-identical to a one-shot detection on
// the same partial snapshot, and the dirty/reused component work is
// reported. Replay supports the rid method only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"

	"repro/internal/cascade"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// options collects the CLI flags.
type options struct {
	dataset, file, loadTrace, saveTrace, dotFile, method string
	traceFormat                                          string
	scale, beta, alpha, seedFrac, theta, mask            float64
	n                                                    int
	seed                                                 uint64
	verbose                                              bool
	replay                                               bool
	replayChecks                                         int
	profile                                              *cli.ProfileConfig
}

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "Epinions", "synthetic preset: Epinions or Slashdot")
	flag.StringVar(&o.file, "file", "", "real SNAP signed edge list, optionally .gz (overrides -dataset)")
	flag.StringVar(&o.loadTrace, "load-trace", "", "replay a saved instance instead of simulating")
	flag.StringVar(&o.saveTrace, "save-trace", "", "save the simulated instance to this file")
	flag.StringVar(&o.traceFormat, "trace-format", "json", "wire format for -save-trace: json or binary (-load-trace auto-detects)")
	flag.StringVar(&o.dotFile, "dot", "", "write the infected subgraph as Graphviz DOT to this file")
	flag.StringVar(&o.method, "method", "rid", "detector: rid, rid-tree, rid-positive, rumor-centrality, jordan-center, degree-max, ensemble")
	flag.Float64Var(&o.scale, "scale", 0.02, "preset scale in (0,1]")
	flag.Float64Var(&o.beta, "beta", 0.3, "RID initiator penalty β")
	flag.Float64Var(&o.alpha, "alpha", 3, "MFC boosting coefficient α")
	flag.IntVar(&o.n, "n", 0, "number of rumor initiators (0 = seed-frac * nodes)")
	flag.Float64Var(&o.seedFrac, "seed-frac", 0.05, "initiators as a fraction of nodes when -n is 0")
	flag.Float64Var(&o.theta, "theta", 0.5, "positive ratio of initiator states")
	flag.Float64Var(&o.mask, "mask", 0, "fraction of infected states hidden as '?'")
	flag.Uint64Var(&o.seed, "seed", 1, "RNG seed")
	flag.BoolVar(&o.verbose, "v", false, "print forest statistics and per-initiator detail")
	flag.BoolVar(&o.replay, "replay", false, "stream the instance as events through an incremental session, asserting prefix bit-identity")
	flag.IntVar(&o.replayChecks, "replay-checks", 10, "number of evenly spaced prefix equivalence checks during -replay")
	logCfg := cli.LogFlags()
	o.profile = cli.ProfileFlags()
	flag.Parse()
	cli.NoPositionalArgs("ridlab")
	if err := logCfg.Setup(); err != nil {
		cli.Fatal("ridlab", err)
	}
	if err := run(o); err != nil {
		cli.Fatal("ridlab", err)
	}
}

func run(o options) error {
	stopProfile, err := o.profile.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "ridlab: profile write failed: %v\n", err)
		}
	}()
	snap, seeds, states, err := instance(o)
	if err != nil {
		return err
	}
	if o.replay {
		return replay(o, snap, seeds, states)
	}
	if o.dotFile != "" {
		if err := writeInfectedDOT(o.dotFile, snap); err != nil {
			return err
		}
		fmt.Printf("wrote infected subgraph to %s\n", o.dotFile)
	}
	if o.saveTrace != "" {
		if err := saveTrace(o, snap, seeds, states); err != nil {
			return err
		}
		fmt.Printf("saved instance to %s (%s)\n", o.saveTrace, o.traceFormat)
	}
	d, err := core.NewDetector(o.method, o.alpha, o.beta, 0)
	if errors.Is(err, core.ErrUnknownDetector) {
		return cli.Usagef("unknown method %q", o.method)
	}
	if err != nil {
		return err
	}
	det, err := d.Detect(snap)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d components, %d trees, %d detected\n", d.Name(), det.Components, det.Trees, len(det.Initiators))
	if o.verbose {
		forest, err := cascade.Extract(snap, cascade.Config{Alpha: o.alpha})
		if err != nil {
			return err
		}
		fs := forest.Stats()
		fmt.Printf("forest:   %d trees over %d nodes (largest %d, mean %.1f, depth %d, %d inconsistent links)\n",
			fs.Trees, fs.Nodes, fs.LargestTree, fs.MeanTreeSize, fs.MaxDepth, fs.InconsistentEdges)
	}
	if seeds == nil {
		fmt.Println("no ground truth available (trace without seeds); detection printed above")
		return nil
	}
	id := metrics.EvalIdentity(det.Initiators, seeds)
	fmt.Printf("identity: precision=%.3f recall=%.3f F1=%.3f\n", id.Precision, id.Recall, id.F1)
	if det.States != nil && states != nil {
		stm, err := metrics.EvalStates(det.Initiators, det.States, seeds, states)
		if err != nil {
			return err
		}
		fmt.Printf("states:   accuracy=%.3f MAE=%.3f R2=%.3f over %d correct detections\n",
			stm.Accuracy, stm.MAE, stm.R2, stm.Compared)
	}
	if o.verbose {
		// Identity-only ground truth (seeds without states) marks TP/FP
		// but cannot judge a detected state.
		truth := make(map[int]sgraph.State, len(seeds))
		for i, s := range seeds {
			truth[s] = sgraph.StateUnknown
			if states != nil {
				truth[s] = states[i]
			}
		}
		for i, v := range det.Initiators {
			mark := "FP"
			if ts, ok := truth[v]; ok {
				mark = "TP"
				if det.States != nil && states != nil && det.States[i] != ts {
					mark = "TP(state wrong)"
				}
			}
			if det.States != nil {
				fmt.Printf("  node %-8d state %-2v  %s\n", v, det.States[i], mark)
			} else {
				fmt.Printf("  node %-8d %s\n", v, mark)
			}
		}
	}
	return nil
}

// replay linearizes the instance into a deterministic event stream and
// feeds it through an incremental ingest session, asserting at evenly
// spaced prefixes that incremental detection matches a one-shot detect on
// the same partial snapshot bit for bit.
func replay(o options, snap *cascade.Snapshot, seeds []int, states []sgraph.State) error {
	if o.method != "rid" {
		return cli.Usagef("-replay supports the rid method only, got %q", o.method)
	}
	if o.replayChecks < 1 {
		return cli.Usagef("-replay-checks must be >= 1, got %d", o.replayChecks)
	}
	tr := trace.FromSnapshot("ridlab-replay", snap, seeds, states)
	events, err := ingest.EventsFromTrace(tr)
	if err != nil {
		return err
	}
	ridCfg := core.RIDConfig{Alpha: o.alpha, Beta: o.beta}
	sess, err := ingest.NewSession(snap.G, tr.NetworkHash(), ridCfg)
	if err != nil {
		return err
	}
	rid, err := core.NewRID(ridCfg)
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d events over %d nodes, %d equivalence checks\n",
		len(events), snap.G.NumNodes(), o.replayChecks)

	stride := len(events) / o.replayChecks
	if stride < 1 {
		stride = 1
	}
	shadow := make([]sgraph.State, snap.G.NumNodes())
	ctx := context.Background()
	var totalDirty, totalReused, checks int
	for i, e := range events {
		if n, err := sess.Apply(ctx, []trace.Event{e}); err != nil || n != 1 {
			return fmt.Errorf("event %d (%+v): %w", i, e, err)
		}
		st, err := trace.StateFromCode(e.State)
		if err != nil {
			return err
		}
		shadow[e.To] = st
		if (i+1)%stride != 0 && i != len(events)-1 {
			continue
		}
		inc, stats, err := sess.Detect(ctx)
		if err != nil {
			return fmt.Errorf("incremental detect at prefix %d: %w", i+1, err)
		}
		totalDirty += stats.Dirty
		totalReused += stats.Reused
		checks++
		partial, err := cascade.NewSnapshot(snap.G, shadow)
		if err != nil {
			return err
		}
		full, err := rid.Detect(partial)
		if err != nil {
			return fmt.Errorf("one-shot detect at prefix %d: %w", i+1, err)
		}
		if !reflect.DeepEqual(inc, full) {
			return fmt.Errorf("prefix %d/%d: incremental detection diverged from one-shot (%d vs %d initiators)",
				i+1, len(events), len(inc.Initiators), len(full.Initiators))
		}
		fmt.Printf("  prefix %6d/%d: %3d components (%3d dirty, %3d reused), %d initiators — identical\n",
			i+1, len(events), stats.Components, stats.Dirty, stats.Reused, len(inc.Initiators))
	}
	fmt.Printf("replay: %d checks passed; component solves: %d dirty, %d reused (%.1f%% saved)\n",
		checks, totalDirty, totalReused, 100*float64(totalReused)/float64(max(totalDirty+totalReused, 1)))
	return nil
}

// saveTrace persists the instance in the format selected by -trace-format:
// the JSON schema or the compact "RIDT" binary codec (internal/trace).
func saveTrace(o options, snap *cascade.Snapshot, seeds []int, states []sgraph.State) error {
	tr := trace.FromSnapshot("ridlab", snap, seeds, states)
	f, err := os.Create(o.saveTrace)
	if err != nil {
		return err
	}
	defer f.Close()
	switch o.traceFormat {
	case "json":
		err = trace.Write(f, tr)
	case "binary":
		err = trace.WriteBinary(f, tr)
	default:
		return fmt.Errorf("unknown -trace-format %q (want json or binary)", o.traceFormat)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// instance produces the snapshot and ground truth: replayed from a trace,
// or simulated on a loaded/generated network.
func instance(o options) (*cascade.Snapshot, []int, []sgraph.State, error) {
	if o.loadTrace != "" {
		data, err := os.ReadFile(o.loadTrace)
		if err != nil {
			return nil, nil, nil, err
		}
		tr, err := trace.Decode(data)
		if err != nil {
			return nil, nil, nil, err
		}
		snap, err := tr.Snapshot()
		if err != nil {
			return nil, nil, nil, err
		}
		seeds, states, err := tr.GroundTruth()
		if err != nil {
			return nil, nil, nil, err
		}
		st := snap.G.Stats()
		fmt.Printf("trace %q: %d nodes, %d links, %d infected\n",
			tr.Name, st.Nodes, st.Edges, len(snap.Infected()))
		return snap, seeds, states, nil
	}

	rng := xrand.New(o.seed)
	var (
		g   *sgraph.Graph
		err error
	)
	if o.file != "" {
		g, err = dataset.OpenSNAP(o.file)
		if err != nil {
			return nil, nil, nil, err
		}
		g = sgraph.WeightByJaccard(g, 0.1, rng)
	} else {
		g, err = dataset.Load(o.dataset, o.scale, rng)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	st := g.Stats()
	p50, p90, p99, maxDeg := g.DegreePercentiles()
	fmt.Printf("network: %d nodes, %d links (%.1f%% positive, out-degree p50/p90/p99/max %d/%d/%d/%d)\n",
		st.Nodes, st.Edges, 100*st.PositiveRatio, p50, p90, p99, maxDeg)

	dif := g.Reverse()
	n := o.n
	if n == 0 {
		n = int(o.seedFrac * float64(dif.NumNodes()))
		if n < 1 {
			n = 1
		}
	}
	seeds, states, err := diffusion.SampleInitiators(dif.NumNodes(), n, o.theta, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := diffusion.MFC(dif, seeds, states, diffusion.MFCConfig{Alpha: o.alpha}, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("outbreak: %d initiators -> %d infected in %d rounds (%d flips)\n",
		len(seeds), c.NumInfected(), c.Rounds, c.Flips)
	observed := c.States
	if o.mask > 0 {
		observed = diffusion.MaskStates(c.States, o.mask, rng)
	}
	snap, err := cascade.NewSnapshot(dif, observed)
	if err != nil {
		return nil, nil, nil, err
	}
	return snap, seeds, states, nil
}

// writeInfectedDOT exports the infected subgraph (local IDs) with states.
func writeInfectedDOT(path string, snap *cascade.Snapshot) error {
	sub := sgraph.Induce(snap.G, snap.Infected())
	states := make([]sgraph.State, sub.G.NumNodes())
	for local, orig := range sub.Orig {
		states[local] = snap.States[orig]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sgraph.WriteDOT(f, sub.G, "infected", states)
}
