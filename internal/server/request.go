package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/trace"
)

// Every compute route runs the same three steps: resolveGraph finds the
// network, a scope carries the request's bookkeeping, and detectObservation
// solves one observation (the detect routes only).

// resolveGraph resolves a route's network from exactly one of an inline
// trace (validated here) or the graph_hash of a network built before. The
// returned cache state is "hit" from the LRU, "warm" from the snapshot
// store (zero-copy views over the persisted CSR file, skipping validation
// and index sorting) or "miss" when the trace's edges had to be built; a
// miss is persisted to the store for the next process. A hash in neither
// answers 404 so the client knows to resubmit the trace. Hashing, lookups
// and the build run under the graph_build stage.
func (s *Server) resolveGraph(ctx context.Context, t *trace.Trace, hash string) (*sgraph.Graph, string, string, error) {
	if (t == nil) == (hash == "") {
		return nil, "", "", badRequest("exactly one of trace or graph_hash is required")
	}
	if t != nil {
		if err := t.Validate(); err != nil {
			return nil, "", "", badRequest("%v", err)
		}
	}
	span := obs.Stage(ctx, obs.StageGraphBuild)
	defer span.End()
	if t != nil {
		hash = t.NetworkHash()
	}
	if g, ok := s.cache.Get(hash); ok {
		s.reg.CountCache(true)
		return g, hash, "hit", nil
	}
	s.reg.CountCache(false)
	g, err := s.snapshots.Load(hash)
	if err == nil {
		s.cache.Put(hash, g)
		return g, hash, "warm", nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		// A corrupt snapshot never reaches serving: the loader rejected it,
		// and a rebuild from a trace overwrites it with a good one.
		slog.Warn("server: snapshot load failed", "hash", hash, "err", err)
	}
	if t == nil {
		return nil, "", "", &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("graph %s not cached; resubmit the trace", hash)}
	}
	if g, err = t.BuildGraph(); err != nil {
		return nil, "", "", badRequest("%v", err)
	}
	s.cache.Put(hash, g)
	if err := s.snapshots.Save(hash, g); err != nil {
		slog.Warn("server: snapshot save failed", "hash", hash, "err", err)
	}
	return g, hash, "miss", nil
}

// scope is what one compute request leaves behind: its pipeline Recorder
// (attached to ctx), a flight record, and — when its work took effect —
// the registry's stage histograms, counters and latency histogram.
type scope struct {
	s      *Server
	ctx    context.Context
	rec    *obs.Recorder
	route  string
	label  string
	detail string
	start  time.Time
	// kept marks a request that reports an error but whose work stayed
	// applied (an events batch keeps its valid prefix), so the registry
	// still absorbs its recorder.
	kept bool
}

// begin opens the scope of a request on route; ctx (sc.ctx) carries its
// Recorder. A success observes its latency under label, unless label is
// empty.
func (s *Server) begin(ctx context.Context, route, label, detail string) scope {
	sc := scope{s: s, rec: obs.NewRecorder(), route: route, label: label,
		detail: detail, start: time.Now()}
	sc.ctx = obs.WithRecorder(ctx, sc.rec)
	return sc
}

// end files the flight record — every outcome, with whatever spans and
// counters the pipeline recorded before failing — and, on success or for a
// kept request, merges the recorder into the registry and observes the
// latency.
func (sc *scope) end(err error) {
	elapsed := time.Since(sc.start)
	fr := obs.FlightRecord{
		TraceID:   obs.TraceID(sc.ctx),
		Route:     sc.route,
		Detail:    sc.detail,
		Start:     sc.start,
		ElapsedMS: millis(elapsed),
		Status:    statusOf(err),
		Stages:    sc.rec.StageViews(),
		Algo:      sc.rec.CounterSetSnapshot(),
	}
	if err != nil {
		fr.Error = err.Error()
	}
	sc.s.recordFlight(fr)
	if err != nil && !sc.kept {
		return
	}
	sc.s.reg.MergeRecorder(sc.rec)
	if sc.label != "" {
		sc.s.reg.Observe(sc.label, elapsed)
	}
}

// millis converts a duration to fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// detectObservation is the detection step of /v1/detect and of every
// batch item: bind the observation to g (snapshot stage), run the detector,
// rank its initiators (top k when k > 0) and, when the observation carries
// ground truth, score them. Algo is the counters of ctx's Recorder.
func detectObservation(ctx context.Context, o *trace.Observation, g *sgraph.Graph, detector core.Detector, k int) (BatchItemResult, error) {
	span := obs.Stage(ctx, obs.StageSnapshot)
	snap, err := o.SnapshotOn(g)
	span.End()
	if err != nil {
		return BatchItemResult{}, badRequest("%v", err)
	}
	det, err := core.DetectWithContext(ctx, detector, snap)
	if err != nil {
		return BatchItemResult{}, err
	}
	res := BatchItemResult{
		Initiators: rankInitiators(det, k),
		Trees:      det.Trees,
		Components: det.Components,
		Algo:       obs.RecorderFrom(ctx).CounterSetSnapshot(),
	}
	if seeds, _, err := o.GroundTruth(); err == nil && len(seeds) > 0 {
		detected := make([]int, len(res.Initiators))
		for i, ri := range res.Initiators {
			detected[i] = ri.Node
		}
		id := metrics.EvalIdentity(detected, seeds)
		res.Truth = &TruthReport{Precision: id.Precision, Recall: id.Recall, F1: id.F1}
	}
	return res, nil
}

// rankInitiators maps a detection's rank order (core.Detection.Order) to
// the response form and truncates it to k when k > 0.
func rankInitiators(det *core.Detection, k int) []RankedInitiator {
	order := det.Order()
	if k > 0 && k < len(order) {
		order = order[:k]
	}
	out := make([]RankedInitiator, len(order))
	for i, p := range order {
		out[i] = RankedInitiator{Node: det.Initiators[p]}
		if det.States != nil {
			out[i].State = int8(det.States[p])
		}
		if det.Confidence != nil {
			out[i].Score = det.Confidence[p]
		}
	}
	return out
}
