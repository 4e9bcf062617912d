package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profiling"
	"repro/internal/sgraph"
	"repro/internal/trace"
)

// DetectBatchRequest is the POST /v1/detect/batch payload: many observed
// snapshots solved against one network, supplied once for the whole batch
// — inline as a trace (whose own observation and ground truth are ignored)
// or as the graph_hash of a previously built network. The batch pays graph
// resolution, detector construction and response encoding once instead of
// per item.
type DetectBatchRequest struct {
	// Trace supplies the network inline. Mutually exclusive with GraphHash.
	Trace *trace.Trace `json:"trace,omitempty"`
	// GraphHash names a network already in the cache or snapshot store.
	GraphHash string `json:"graph_hash,omitempty"`
	// Items are the observations to solve, each with Trace field encodings.
	Items []trace.Observation `json:"items"`
	// Detector, Beta, Alpha and K are shared by every item, with
	// DetectRequest semantics and defaults.
	Detector string  `json:"detector,omitempty"`
	Beta     float64 `json:"beta,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	K        int     `json:"k,omitempty"`
	// TimeoutMS bounds the whole batch, not each item. When the deadline
	// fires mid-batch the response still carries every completed item;
	// unfinished items report the deadline in their Error field.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item's outcome. Error is set — and the result
// fields empty — when this item alone failed (a bad observation, or the
// batch deadline reached before the item finished); other items are
// unaffected.
type BatchItemResult struct {
	Name       string            `json:"name,omitempty"`
	Initiators []RankedInitiator `json:"initiators,omitempty"`
	Trees      int               `json:"trees,omitempty"`
	Components int               `json:"components,omitempty"`
	ElapsedMS  float64           `json:"elapsed_ms"`
	// Algo carries this item's typed algorithm-depth counters; the
	// batch-level Algo is their sum.
	Algo  *obs.CounterSet `json:"algo_counters,omitempty"`
	Truth *TruthReport    `json:"truth,omitempty"`
	Error string          `json:"error,omitempty"`
}

// DetectBatchResponse is the POST /v1/detect/batch result. Items align
// with the request's items by index.
type DetectBatchResponse struct {
	Detector  string            `json:"detector"`
	GraphHash string            `json:"graph_hash"`
	Cache     string            `json:"cache"` // "hit", "warm" or "miss"
	Items     []BatchItemResult `json:"items"`
	// Failed counts items with a per-item error.
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// StageTimings and Algo aggregate over every item (plus the shared
	// graph resolution), so per-stage totals may exceed ElapsedMS when
	// items ran in parallel.
	StageTimings map[string]float64 `json:"stage_timings,omitempty"`
	Algo         *obs.CounterSet    `json:"algo_counters,omitempty"`
	TraceID      string             `json:"trace_id,omitempty"`
}

// handleDetectBatch admits a whole batch as one pooled job; the fan-out
// across items happens inside it, bounded by the server's per-request
// Parallelism, so a batch occupies one worker slot exactly like a single
// detect and queue admission stays fair across clients.
func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	var req DetectBatchRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if (req.Trace == nil) == (req.GraphHash == "") {
		writeError(w, badRequest("exactly one of trace or graph_hash is required"))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, badRequest("missing items"))
		return
	}
	if req.K < 0 {
		writeError(w, badRequest("k must be non-negative, got %d", req.K))
		return
	}
	if req.Trace != nil {
		if err := req.Trace.Validate(); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
	}
	// Reject unknown detector names before burning a worker slot.
	probe, err := core.NewDetector(req.Detector, req.Alpha, req.Beta, 1)
	if err != nil {
		writeError(w, err)
		return
	}
	s.runPooled(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// batch=true distinguishes fan-out CPU from single-detect CPU for
		// the same detector; the par workers inherit both labels.
		var resp any
		var derr error
		profiling.Do(ctx, func(ctx context.Context) {
			resp, derr = s.detectBatch(ctx, &req)
		}, profiling.LabelModel, probe.Name(), profiling.LabelBatch, "true")
		return resp, derr
	})
}

func (s *Server) detectBatch(ctx context.Context, req *DetectBatchRequest) (resp *DetectBatchResponse, err error) {
	start := time.Now()
	rec := obs.NewRecorder()

	// Items fan out across the request's parallelism budget; each item's
	// detector then runs serially (Parallelism 1) so a batch never exceeds
	// the concurrency one parallel detect would use. A single-item batch
	// keeps the configured per-detection parallelism instead.
	workers := par.Workers(s.cfg.Parallelism)
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	itemParallelism := 1
	if len(req.Items) == 1 {
		itemParallelism = s.cfg.Parallelism
	}
	detectors := make([]core.Detector, workers)
	for i := range detectors {
		if detectors[i], err = core.NewDetector(req.Detector, req.Alpha, req.Beta, itemParallelism); err != nil {
			return nil, err
		}
	}
	detail := fmt.Sprintf("detector=%s items=%d", detectors[0].Name(), len(req.Items))
	if t := obs.TelemetryFrom(ctx); t != nil {
		t.SetRecorder(rec)
		t.SetDetail(detail)
	}
	defer func() {
		fr := obs.FlightRecord{
			TraceID:   obs.TraceID(ctx),
			Route:     "/v1/detect/batch",
			Detail:    detail,
			Start:     start,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			Status:    statusOf(err),
			Stages:    rec.StageViews(),
			Algo:      rec.CounterSetSnapshot(),
		}
		if err != nil {
			fr.Error = err.Error()
		}
		s.recordFlight(fr)
	}()

	// One graph resolution serves every item.
	span := obs.Stage(obs.WithRecorder(ctx, rec), obs.StageGraphBuild)
	var (
		g          *sgraph.Graph
		hash       string
		cacheState string
	)
	if req.Trace != nil {
		g, hash, cacheState, err = s.resolveGraph(req.Trace)
	} else {
		hash = req.GraphHash
		g, cacheState, err = s.lookupGraph(req.GraphHash)
	}
	span.End()
	if err != nil {
		return nil, err
	}

	results := make([]BatchItemResult, len(req.Items))
	itemRecs := make([]*obs.Recorder, len(req.Items))
	perr := par.ForEach(ctx, workers, len(req.Items), func(worker, i int) error {
		item := &req.Items[i]
		res := &results[i]
		res.Name = item.Name
		itemStart := time.Now()
		irec := obs.NewRecorder()
		itemRecs[i] = irec
		itemErr := s.detectItem(obs.WithRecorder(ctx, irec), item, detectors[worker], req.K, irec, res, g)
		res.ElapsedMS = float64(time.Since(itemStart)) / float64(time.Millisecond)
		if itemErr != nil {
			// Per-item isolation: every failure — a bad item, or the batch
			// deadline catching this item mid-solve — lands in this item's
			// own Error field. Completed results are never discarded.
			res.Error = itemErr.Error()
		}
		return nil
	})
	// A batch-wide cancellation or deadline stops the fan-out between
	// items: finished work is kept, and items that never started report
	// the batch-wide cause in their own Error field so the response stays
	// index-aligned with the request.
	if cerr := ctx.Err(); cerr != nil {
		for i := range results {
			if itemRecs[i] == nil {
				results[i].Name = req.Items[i].Name
				results[i].Error = cerr.Error()
			}
		}
	} else if perr != nil {
		return nil, perr
	}
	failed := 0
	for i := range results {
		if itemRecs[i] != nil {
			rec.MergeFrom(itemRecs[i])
		}
		if results[i].Error != "" {
			failed++
		}
	}
	s.reg.MergeRecorder(rec)
	resp = &DetectBatchResponse{
		Detector:     detectors[0].Name(),
		GraphHash:    hash,
		Cache:        cacheState,
		Items:        results,
		Failed:       failed,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
		StageTimings: rec.StageMillis(),
		Algo:         rec.CounterSetSnapshot(),
		TraceID:      obs.TraceID(ctx),
	}
	s.reg.Observe("detect_batch", time.Since(start))
	return resp, nil
}

// detectItem solves one observation of a batch against the shared graph,
// filling res on success.
func (s *Server) detectItem(ctx context.Context, item *trace.Observation, detector core.Detector, k int, rec *obs.Recorder, res *BatchItemResult, g *sgraph.Graph) error {
	if err := item.Validate(g.NumNodes()); err != nil {
		return err
	}
	span := obs.Stage(ctx, obs.StageSnapshot)
	snap, err := item.SnapshotOn(g)
	span.End()
	if err != nil {
		return err
	}
	det, err := core.DetectWithContext(ctx, detector, snap)
	if err != nil {
		return err
	}
	res.Initiators = rankInitiators(det, k)
	res.Trees = det.Trees
	res.Components = det.Components
	res.Algo = rec.CounterSetSnapshot()
	if seeds, _, err := item.GroundTruth(); err == nil && len(seeds) > 0 {
		detected := make([]int, len(res.Initiators))
		for i, ri := range res.Initiators {
			detected[i] = ri.Node
		}
		id := metrics.EvalIdentity(detected, seeds)
		res.Truth = &TruthReport{Precision: id.Precision, Recall: id.Recall, F1: id.F1}
	}
	return nil
}

// lookupGraph fetches a previously built network by content hash: the LRU
// first, then the snapshot store ("warm" — the graph comes back as
// zero-copy views over the snapshot file and is re-cached). A hash in
// neither answers 404 so the client knows to resubmit the trace.
func (s *Server) lookupGraph(hash string) (*sgraph.Graph, string, error) {
	if g, ok := s.cache.Get(hash); ok {
		s.reg.CountCache(true)
		return g, "hit", nil
	}
	s.reg.CountCache(false)
	g, err := s.snapshots.Load(hash)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			slog.Warn("server: snapshot load failed", "hash", hash, "err", err)
		}
		return nil, "", &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("graph %s not cached; resubmit the trace", hash)}
	}
	s.cache.Put(hash, g)
	return g, "warm", nil
}

// decodeDetect reads a detect request in either wire form. JSON carries
// the DetectRequest envelope; a Content-Type of application/x-rid-trace
// makes the body one binary trace (internal/trace "RIDT" v1) with the
// detector options in the query string (detector, alpha, beta, k,
// timeout_ms). Both forms meet the same Trace.Validate downstream — the
// binary decoder is structural only.
func (s *Server) decodeDetect(w http.ResponseWriter, r *http.Request, req *DetectRequest) error {
	if mediaType(r.Header.Get("Content-Type")) != trace.BinaryContentType {
		return decodeBody(w, r, req, s.cfg.MaxBodyBytes)
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("read body: %v", err)
	}
	t, err := trace.UnmarshalBinary(data)
	if err != nil {
		return badRequest("%v", err)
	}
	req.Trace = t
	req.Detector = r.URL.Query().Get("detector")
	if req.Alpha, err = queryFloat(r, "alpha"); err != nil {
		return badRequest("query alpha: %v", err)
	}
	if req.Beta, err = queryFloat(r, "beta"); err != nil {
		return badRequest("query beta: %v", err)
	}
	if req.K, err = queryInt(r, "k"); err != nil {
		return badRequest("query k: %v", err)
	}
	if req.TimeoutMS, err = queryInt(r, "timeout_ms"); err != nil {
		return badRequest("query timeout_ms: %v", err)
	}
	return nil
}

// mediaType extracts the lowercased media type from a Content-Type value,
// dropping parameters like charset.
func mediaType(ct string) string {
	base, _, _ := strings.Cut(ct, ";")
	return strings.ToLower(strings.TrimSpace(base))
}

// queryFloat parses an optional float query parameter, returning 0 when
// absent (the shared option defaults then apply).
func queryFloat(r *http.Request, name string) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	return strconv.ParseFloat(v, 64)
}
