package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diffusion"
	"repro/internal/experiment"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Workload parameters. They are part of the benchmark's definition: a
// change to any of them is a change to the benchmark, not to the program.
const (
	scale        = 0.01 // share of the Table II network sizes
	seedFraction = 0.05 // initiators per node of a simulated outbreak
	theta        = 0.5  // share of positive initiators
	ridBeta      = 0.3  // RID's per-initiator penalty (ridserve's default)

	inlineObsPerNet = 32 // distinct MFC observations per detect-inline network

	forensicsShards = 8  // outbreaks composed into the shared network
	forensicsSims   = 4  // /v1/simulate calls (and batch items) per iteration
	forensicsIters  = 32 // distinct iterations the clients cycle through

	sessionCascades = 16 // distinct cascades the streams cycle through
	sessionBatch    = 25 // events per POST .../events
)

// inlinePresets are the eight detect-inline networks.
var inlinePresets = []string{"Epinions", "Slashdot", "Epinions", "Slashdot", "Epinions", "Slashdot", "Epinions", "Slashdot"}

// Call kinds.
const (
	kindDetect        = "detect"
	kindSimulate      = "simulate"
	kindBatch         = "batch"
	kindSessionCreate = "session-create"
	kindEvents        = "events"
	kindSessionDetect = "session-detect"
	kindSessionDelete = "session-delete"
)

// call is one HTTP request of a workload together with the answer the
// benchmark computed for it in-process.
type call struct {
	kind   string
	method string
	// path may hold "{id}", replaced by the stream's session id.
	path string
	body []byte
	want want
}

// want is the reference answer of one call. Which fields are set depends
// on the call's kind.
type want struct {
	// detect and session-detect: the ranked initiators; truth is set when
	// the answer is scored against ground-truth seeds.
	initiators []server.RankedInitiator
	truth      bool
	f1         float64
	// infected is the number of infected nodes (infection events) the
	// detection covers.
	infected int
	// simulate: the final observed states.
	observed []int8
	// batch: one answer per item.
	items []want
	// events: the number of events the batch applies.
	applied int
}

// unit is a sequence of calls one closed-loop client sends in order; a
// session unit opens its session with its first call.
type unit []call

// inputs is everything one workload sends.
type inputs struct {
	// prime is sent once per server launch, before measuring: it puts
	// every network the workload uses into ridserve's graph cache.
	prime []call
	// networks holds each primed network's trace by content hash, for the
	// traced replay.
	networks map[string]*trace.Trace
	// pool and order define the open loop of detect-inline: request i
	// sends pool[order[i%len(order)]].
	pool  []call
	order []int
	// units are the closed-loop work items; client c runs units c,
	// c+clients, c+2*clients, ... and wraps around.
	units []unit
}

// makeInputs generates a workload's requests and reference answers from
// its seed.
func makeInputs(workload string, seed uint64) (*inputs, error) {
	switch workload {
	case "detect-inline":
		return inlineInputs(seed)
	case "forensics-batch":
		return forensicsInputs(seed)
	case "session-stream":
		return sessionInputs(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func workloadRNG(workload string, seed uint64) *xrand.Rand {
	h := uint64(14695981039346656037)
	for _, b := range []byte(workload) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return xrand.New(seed ^ h)
}

func inlineInputs(seed uint64) (*inputs, error) {
	rng := workloadRNG("detect-inline", seed)
	in := &inputs{networks: make(map[string]*trace.Trace)}
	rid, err := referenceRID()
	if err != nil {
		return nil, err
	}
	for ni, preset := range inlinePresets {
		nrng := rng.Split()
		g, err := dataset.Load(preset, scale, nrng)
		if err != nil {
			return nil, err
		}
		dif := g.Reverse()
		for j := 0; j < inlineObsPerNet; j++ {
			seeds, states, c, err := simulateMFC(dif, nrng)
			if err != nil {
				return nil, err
			}
			snap, err := cascade.NewSnapshot(dif, c.States)
			if err != nil {
				return nil, err
			}
			tr := trace.FromSnapshot(fmt.Sprintf("%s-%d-%d", preset, ni, j), snap, seeds, states)
			cl, err := detectCall(rid, tr)
			if err != nil {
				return nil, err
			}
			if j == 0 {
				in.networks[tr.NetworkHash()] = tr
				in.prime = append(in.prime, cl)
			}
			in.pool = append(in.pool, cl)
		}
	}
	in.order = rng.Perm(len(in.pool))
	return in, nil
}

// detectCall is POST /v1/detect of a whole trace, with the answer
// computed in-process from the same trace.
func detectCall(rid *core.RID, tr *trace.Trace) (call, error) {
	body, err := json.Marshal(server.DetectRequest{Trace: tr, Detector: "rid", Beta: ridBeta})
	if err != nil {
		return call{}, err
	}
	snap, err := tr.Snapshot()
	if err != nil {
		return call{}, err
	}
	w, err := referenceDetect(rid, snap, tr.Seeds)
	if err != nil {
		return call{}, err
	}
	return call{kind: kindDetect, method: "POST", path: "/v1/detect", body: body, want: w}, nil
}

// composite builds the forensics-batch and session-stream network: eight
// Epinions-like outbreaks composed into one graph.
func composite(rng *xrand.Rand) (*trace.Trace, *sgraph.Graph, error) {
	w := experiment.Workload{Dataset: "Epinions", Scale: scale, SeedFraction: seedFraction, Theta: theta, Trials: 1, BaseSeed: rng.Uint64() | 1}
	inst, err := w.RunSharded(forensicsShards, 0)
	if err != nil {
		return nil, nil, err
	}
	return trace.FromSnapshot("composite", inst.Snap, inst.Seeds, inst.States), inst.Snap.G, nil
}

// sharedNetwork generates the composite and its priming call: a one-shot
// detect of the composite's own outbreak, which caches the network.
func sharedNetwork(rng *xrand.Rand) (*inputs, *sgraph.Graph, string, error) {
	tr, g, err := composite(rng)
	if err != nil {
		return nil, nil, "", err
	}
	rid, err := referenceRID()
	if err != nil {
		return nil, nil, "", err
	}
	prime, err := detectCall(rid, tr)
	if err != nil {
		return nil, nil, "", err
	}
	hash := tr.NetworkHash()
	in := &inputs{prime: []call{prime}, networks: map[string]*trace.Trace{hash: tr}}
	return in, g, hash, nil
}

func forensicsInputs(seed uint64) (*inputs, error) {
	rng := workloadRNG("forensics-batch", seed)
	in, g, hash, err := sharedNetwork(rng)
	if err != nil {
		return nil, err
	}
	rid, err := referenceRID()
	if err != nil {
		return nil, err
	}
	for it := 0; it < forensicsIters; it++ {
		var u unit
		batch := server.DetectBatchRequest{GraphHash: hash, Detector: "rid", Beta: ridBeta}
		var items []want
		for k := 0; k < forensicsSims; k++ {
			seeds, states, err := diffusion.SampleInitiators(g.NumNodes(), int(seedFraction*float64(g.NumNodes())), theta, rng)
			if err != nil {
				return nil, err
			}
			simSeed := rng.Uint64() | 1
			codes := stateCodes(states)
			body, err := json.Marshal(server.SimulateRequest{GraphHash: hash, Initiators: seeds, States: codes, Model: "mfc", Seed: simSeed})
			if err != nil {
				return nil, err
			}
			model, err := diffusion.Lookup("mfc")
			if err != nil {
				return nil, err
			}
			if err := model.Validate(nil); err != nil {
				return nil, err
			}
			c, err := model.Run(g, seeds, states, xrand.New(simSeed))
			if err != nil {
				return nil, err
			}
			observed := stateCodes(c.States)
			u = append(u, call{kind: kindSimulate, method: "POST", path: "/v1/simulate", body: body, want: want{observed: observed}})

			ob := trace.Observation{Name: fmt.Sprintf("it%d-%d", it, k), Observed: observed, Seeds: seeds, SeedStates: codes}
			snap, err := ob.SnapshotOn(g)
			if err != nil {
				return nil, err
			}
			w, err := referenceDetect(rid, snap, seeds)
			if err != nil {
				return nil, err
			}
			batch.Items = append(batch.Items, ob)
			items = append(items, w)
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		u = append(u, call{kind: kindBatch, method: "POST", path: "/v1/detect/batch", body: body, want: want{items: items}})
		in.units = append(in.units, u)
	}
	return in, nil
}

func sessionInputs(seed uint64) (*inputs, error) {
	rng := workloadRNG("session-stream", seed)
	in, g, hash, err := sharedNetwork(rng)
	if err != nil {
		return nil, err
	}
	network := in.networks[hash]
	rid, err := referenceRID()
	if err != nil {
		return nil, err
	}
	createBody, err := json.Marshal(server.SessionRequest{GraphHash: hash, Beta: ridBeta})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for ci := 0; ci < sessionCascades; ci++ {
		seeds, states, c, err := simulateMFC(g, rng)
		if err != nil {
			return nil, err
		}
		ob := trace.Observation{Name: fmt.Sprintf("cascade-%d", ci), Observed: stateCodes(c.States), Seeds: seeds, SeedStates: stateCodes(states)}
		tr := ob.Trace(network)
		events, err := ingest.EventsFromTrace(tr)
		if err != nil {
			return nil, err
		}
		sess, err := ingest.NewSession(g, hash, core.RIDConfig{Beta: ridBeta, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		u := unit{{kind: kindSessionCreate, method: "POST", path: "/v1/sessions", body: createBody}}
		for lo := 0; lo < len(events); lo += sessionBatch {
			batch := events[lo:min(lo+sessionBatch, len(events))]
			body, err := json.Marshal(server.EventsRequest{Events: batch})
			if err != nil {
				return nil, err
			}
			if n, err := sess.Apply(ctx, batch); err != nil {
				return nil, fmt.Errorf("session reference: event %d: %w", lo+n, err)
			}
			det, _, err := sess.Detect(ctx)
			if err != nil {
				return nil, err
			}
			u = append(u,
				call{kind: kindEvents, method: "POST", path: "/v1/sessions/{id}/events", body: body, want: want{applied: len(batch)}},
				call{kind: kindSessionDetect, method: "GET", path: "/v1/sessions/{id}/detect", want: want{initiators: rank(det)}})
		}
		// The stream's last detect must equal a one-shot detect of the
		// final observation, not merely the in-process session replay.
		snap, err := ob.SnapshotOn(g)
		if err != nil {
			return nil, err
		}
		final, err := referenceDetect(rid, snap, seeds)
		if err != nil {
			return nil, err
		}
		final.infected = 0 // the stream's events count where they are applied
		u[len(u)-1].want = final
		u = append(u, call{kind: kindSessionDelete, method: "DELETE", path: "/v1/sessions/{id}"})
		in.units = append(in.units, u)
	}
	return in, nil
}

func simulateMFC(g *sgraph.Graph, rng *xrand.Rand) ([]int, []sgraph.State, *diffusion.Cascade, error) {
	seeds, states, err := diffusion.SampleInitiators(g.NumNodes(), int(seedFraction*float64(g.NumNodes())), theta, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := diffusion.MFC(g, seeds, states, diffusion.MFCConfig{Alpha: diffusion.DefaultAlpha}, rng)
	return seeds, states, c, err
}

// referenceRID is the detector ridserve builds for detector "rid" at the
// benchmark's beta. Detections are identical at every parallelism.
func referenceRID() (*core.RID, error) {
	return core.NewRID(core.RIDConfig{Alpha: diffusion.DefaultAlpha, Beta: ridBeta, Parallelism: 1})
}

func referenceDetect(rid *core.RID, snap *cascade.Snapshot, seeds []int) (want, error) {
	det, err := rid.DetectContext(context.Background(), snap)
	if err != nil {
		return want{}, err
	}
	w := want{initiators: rank(det), infected: len(snap.Infected())}
	if len(seeds) > 0 {
		w.truth = true
		w.f1 = f1Score(w.initiators, seeds)
	}
	return w, nil
}

// rank orders a detection the way ridserve answers it: by descending
// score, then ascending node.
func rank(det *core.Detection) []server.RankedInitiator {
	out := make([]server.RankedInitiator, len(det.Initiators))
	for i, v := range det.Initiators {
		out[i] = server.RankedInitiator{Node: v}
		if det.States != nil {
			out[i].State = int8(det.States[i])
		}
		if det.Confidence != nil {
			out[i].Score = det.Confidence[i]
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Node < out[b].Node
	})
	return out
}

func f1Score(ranked []server.RankedInitiator, seeds []int) float64 {
	nodes := make([]int, len(ranked))
	for i, r := range ranked {
		nodes[i] = r.Node
	}
	return metrics.EvalIdentity(nodes, seeds).F1
}

func stateCodes(states []sgraph.State) []int8 {
	out := make([]int8, len(states))
	for i, s := range states {
		out[i] = trace.StateCode(s)
	}
	return out
}
