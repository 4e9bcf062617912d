package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/ingest"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// span is one timed call into a layer's public function during the
// traced replay. Spans of one replayed request share req.
type span struct {
	req    int
	parent int // index of the parent span; -1 for a request's root
	name   string
	// probe marks a call timed outside any request (a standalone
	// measurement of a step ridserve runs inside a larger call); it is
	// not part of any request's time.
	probe      bool
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory; with on false it records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{req: req, parent: parent, name: name, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(req, parent int, name string, fn func() error) error {
	id := t.begin(req, parent, name)
	err := fn()
	t.end(id)
	return err
}

// probe times fn as a standalone span of request req.
func (t *tracer) probe(req int, name string, fn func()) {
	id := t.begin(req, -1, name)
	fn()
	t.end(id)
	t.mu.Lock()
	t.spans[id].probe = true
	t.mu.Unlock()
}

// replayer re-runs recorded requests in-process through the public
// functions ridserve calls for them, in the same order.
type replayer struct {
	t           *tracer
	graphs      map[string]*sgraph.Graph
	parallelism int
	sessions    map[int]*ingest.Session
	// events counts the session events applied.
	events int
}

// replay runs one request. With tracing on it then probes
// cascade.InfectedComponents on each snapshot the request detected.
func (r *replayer) replay(ctx context.Context, req int, s *sample) error {
	root := r.t.begin(req, -1, "request")
	snaps, err := r.run(ctx, req, root, s)
	r.t.end(root)
	if err != nil {
		return fmt.Errorf("replay of %s: %w", s.call.kind, err)
	}
	if r.t.on {
		for _, snap := range snaps {
			r.t.probe(req, "cascade.components", func() { cascade.InfectedComponents(snap, false) })
		}
	}
	return nil
}

func (r *replayer) run(ctx context.Context, req, root int, s *sample) ([]*cascade.Snapshot, error) {
	c := s.call
	t := r.t
	switch c.kind {
	case kindDetect:
		var dr server.DetectRequest
		if err := t.do(req, root, "trace.json_decode", func() error { return decodeStrict(c.body, &dr) }); err != nil {
			return nil, err
		}
		if err := t.do(req, root, "trace.validate", dr.Trace.Validate); err != nil {
			return nil, err
		}
		var hash string
		_ = t.do(req, root, "trace.network_hash", func() error { hash = dr.Trace.NetworkHash(); return nil })
		g, err := r.graph(hash)
		if err != nil {
			return nil, err
		}
		rid, err := core.NewRID(core.RIDConfig{Alpha: diffusion.DefaultAlpha, Beta: dr.Beta, Parallelism: r.parallelism})
		if err != nil {
			return nil, err
		}
		var snap *cascade.Snapshot
		if err := t.do(req, root, "cascade.snapshot_on", func() (err error) { snap, err = dr.Trace.SnapshotOn(g); return }); err != nil {
			return nil, err
		}
		det, err := r.detect(ctx, req, root, rid, snap)
		if err != nil {
			return nil, err
		}
		return []*cascade.Snapshot{snap}, sameInitiators(rank(det), c.want.initiators)

	case kindSimulate:
		var sr server.SimulateRequest
		if err := t.do(req, root, "trace.json_decode", func() error { return decodeStrict(c.body, &sr) }); err != nil {
			return nil, err
		}
		g, err := r.graph(sr.GraphHash)
		if err != nil {
			return nil, err
		}
		states := make([]sgraph.State, len(sr.States))
		for i, code := range sr.States {
			if states[i], err = trace.StateFromCode(code); err != nil {
				return nil, err
			}
		}
		model, err := diffusion.Lookup(sr.Model)
		if err != nil {
			return nil, err
		}
		if err := model.Validate(diffusion.Params(sr.Params)); err != nil {
			return nil, err
		}
		var casc *diffusion.Cascade
		if err := t.do(req, root, "diffusion.run", func() (err error) {
			casc, err = model.Run(g, sr.Initiators, states, xrand.New(sr.Seed))
			return
		}); err != nil {
			return nil, err
		}
		if !slices.Equal(stateCodes(casc.States), c.want.observed) {
			return nil, fmt.Errorf("observed states differ from the reference")
		}
		return nil, nil

	case kindBatch:
		var br server.DetectBatchRequest
		if err := t.do(req, root, "trace.observation_decode", func() error { return decodeStrict(c.body, &br) }); err != nil {
			return nil, err
		}
		g, err := r.graph(br.GraphHash)
		if err != nil {
			return nil, err
		}
		// ridserve fans items across its parallelism, each item solved
		// serially by its worker's own detector.
		workers := min(par.Workers(r.parallelism), len(br.Items))
		itemPar := 1
		if len(br.Items) == 1 {
			itemPar = r.parallelism
		}
		rids := make([]*core.RID, workers)
		for w := range rids {
			if rids[w], err = core.NewRID(core.RIDConfig{Alpha: diffusion.DefaultAlpha, Beta: br.Beta, Parallelism: itemPar}); err != nil {
				return nil, err
			}
		}
		snaps := make([]*cascade.Snapshot, len(br.Items))
		dets := make([]*core.Detection, len(br.Items))
		err = par.ForEach(ctx, workers, len(br.Items), func(w, i int) error {
			item := &br.Items[i]
			if err := t.do(req, root, "trace.observation_decode", func() error { return item.Validate(g.NumNodes()) }); err != nil {
				return err
			}
			if err := t.do(req, root, "cascade.snapshot_on", func() (err error) { snaps[i], err = item.SnapshotOn(g); return }); err != nil {
				return err
			}
			dets[i], err = r.detect(ctx, req, root, rids[w], snaps[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, det := range dets {
			if err := sameInitiators(rank(det), c.want.items[i].initiators); err != nil {
				return nil, fmt.Errorf("item %d: %w", i, err)
			}
		}
		return snaps, nil

	case kindSessionCreate:
		var sr server.SessionRequest
		if err := t.do(req, root, "trace.json_decode", func() error { return decodeStrict(c.body, &sr) }); err != nil {
			return nil, err
		}
		g, err := r.graph(sr.GraphHash)
		if err != nil {
			return nil, err
		}
		var sess *ingest.Session
		if err := t.do(req, root, "ingest.new_session", func() (err error) {
			sess, err = ingest.NewSession(g, sr.GraphHash, core.RIDConfig{Alpha: sr.Alpha, Beta: sr.Beta, Parallelism: r.parallelism})
			return
		}); err != nil {
			return nil, err
		}
		r.sessions[s.stream] = sess
		return nil, nil

	case kindEvents:
		var er server.EventsRequest
		if err := t.do(req, root, "trace.json_decode", func() error { return decodeStrict(c.body, &er) }); err != nil {
			return nil, err
		}
		sess, err := r.session(s.stream)
		if err != nil {
			return nil, err
		}
		var applied int
		if err := t.do(req, root, "ingest.apply", func() (err error) { applied, err = sess.Apply(ctx, er.Events); return }); err != nil {
			return nil, err
		}
		r.events += applied
		return nil, nil

	case kindSessionDetect:
		sess, err := r.session(s.stream)
		if err != nil {
			return nil, err
		}
		var det *core.Detection
		if err := t.do(req, root, "ingest.detect", func() (err error) { det, _, err = sess.Detect(ctx); return }); err != nil {
			return nil, err
		}
		return nil, sameInitiators(rank(det), c.want.initiators)

	case kindSessionDelete:
		delete(r.sessions, s.stream)
		return nil, nil
	}
	return nil, fmt.Errorf("unknown call kind %q", c.kind)
}

// detect is RID.DetectContext spelled out as its two halves, so the
// extraction and the per-tree DP get spans of their own.
func (r *replayer) detect(ctx context.Context, req, parent int, rid *core.RID, snap *cascade.Snapshot) (*core.Detection, error) {
	id := r.t.begin(req, parent, "core.detect")
	defer r.t.end(id)
	var forest *cascade.Forest
	if err := r.t.do(req, id, "cascade.extract", func() (err error) { forest, err = rid.ExtractContext(ctx, snap); return }); err != nil {
		return nil, err
	}
	var det *core.Detection
	err := r.t.do(req, id, "isomit.tree_dp", func() (err error) { det, err = rid.DetectForestContext(ctx, forest); return })
	return det, err
}

func (r *replayer) graph(hash string) (*sgraph.Graph, error) {
	g, ok := r.graphs[hash]
	if !ok {
		return nil, fmt.Errorf("network %s was not primed", hash)
	}
	return g, nil
}

func (r *replayer) session(stream int) (*ingest.Session, error) {
	sess, ok := r.sessions[stream]
	if !ok {
		return nil, fmt.Errorf("stream %d has no session", stream)
	}
	return sess, nil
}

// decodeStrict decodes like ridserve does: unknown fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func sameInitiators(got, want []server.RankedInitiator) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("initiators differ from the reference")
	}
	return nil
}

// replayResult is what the traced replay measured.
type replayResult struct {
	spans []span // of the traced pass
	// n requests were replayed in each pass; onNS and offNS are the
	// traced pass's time (probes excluded) and the mean untraced time.
	n           int
	onNS, offNS int64
	events      int
	// buildMS is Trace.BuildGraph's time per primed network.
	buildMS []float64
}

// replayTrace builds the workload's networks, then replays the recorded
// requests (ordered by send time): an untraced pass that takes a third of
// the budget sets how many, then a traced pass and a second untraced pass
// over the same requests.
func replayTrace(ctx context.Context, in *inputs, ordered []sample, parallelism int, budget time.Duration) (*replayResult, error) {
	res := &replayResult{}
	graphs := make(map[string]*sgraph.Graph, len(in.networks))
	hashes := make([]string, 0, len(in.networks))
	for h := range in.networks {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		start := time.Now()
		g, err := in.networks[h].BuildGraph()
		if err != nil {
			return nil, err
		}
		res.buildMS = append(res.buildMS, ms(time.Since(start)))
		graphs[h] = g
	}

	pass := func(on bool, n int, until time.Time) (int, int64, *replayer, error) {
		r := &replayer{t: newTracer(on), graphs: graphs, parallelism: parallelism, sessions: make(map[int]*ingest.Session)}
		start := time.Now()
		i := 0
		for ; i < n && ctx.Err() == nil; i++ {
			if !until.IsZero() && time.Now().After(until) {
				break
			}
			if err := r.replay(ctx, i, &ordered[i]); err != nil {
				return i, 0, r, err
			}
		}
		elapsed := time.Since(start).Nanoseconds()
		for _, sp := range r.t.spans {
			if sp.probe {
				elapsed -= sp.end - sp.start
			}
		}
		return i, elapsed, r, ctx.Err()
	}
	n, off1, _, err := pass(false, len(ordered), time.Now().Add(budget/3))
	if err != nil {
		return nil, err
	}
	_, on, traced, err := pass(true, n, time.Time{})
	if err != nil {
		return nil, err
	}
	_, off2, _, err := pass(false, n, time.Time{})
	if err != nil {
		return nil, err
	}
	res.n, res.onNS, res.offNS = n, on, (off1+off2)/2
	res.spans, res.events = traced.t.spans, traced.events
	return res, nil
}

// layerTimes is the per-layer breakdown of a traced pass.
type layerTimes struct {
	// self and incl are total self and inclusive nanoseconds per span
	// name; reqs the number of requests with at least one such span.
	self, incl map[string]int64
	reqs       map[string]int
	// covered[i] is the part of request i's time its layer spans cover.
	covered []int64
}

// analyze computes self times: a span's duration minus the part of it
// its children cover.
func analyze(spans []span, n int) layerTimes {
	lt := layerTimes{self: map[string]int64{}, incl: map[string]int64{}, reqs: map[string]int{}, covered: make([]int64, n)}
	children := make(map[int][]interval)
	perReq := make(map[int][]interval)
	for _, sp := range spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], interval{sp.start, sp.end})
			perReq[sp.req] = append(perReq[sp.req], interval{sp.start, sp.end})
		}
	}
	seen := make(map[string]map[int]bool)
	for i, sp := range spans {
		if sp.parent < 0 && !sp.probe {
			if sp.req < n {
				lt.covered[sp.req] = covered(perReq[sp.req], sp.start, sp.end)
			}
			continue
		}
		dur := sp.end - sp.start
		lt.incl[sp.name] += dur
		lt.self[sp.name] += dur - covered(children[i], sp.start, sp.end)
		if seen[sp.name] == nil {
			seen[sp.name] = make(map[int]bool)
		}
		if !seen[sp.name][sp.req] {
			seen[sp.name][sp.req] = true
			lt.reqs[sp.name]++
		}
	}
	return lt
}

// perRequestMS is a layer's self (or, with inclusive, inclusive) time
// per request that calls it, in milliseconds.
func (lt layerTimes) perRequestMS(name string, inclusive bool) float64 {
	total := lt.self[name]
	if inclusive {
		total = lt.incl[name]
	}
	return ratio(float64(total)/1e6, float64(lt.reqs[name]))
}
