package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profiling"
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
	if len(req.Items) == 0 {
		writeError(w, badRequest("missing items"))
		return
	}
	if req.K < 0 {
		writeError(w, badRequest("k must be non-negative, got %d", req.K))
		return
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
	sc := s.begin(ctx, "/v1/detect/batch", "detect_batch",
		fmt.Sprintf("detector=%s items=%d", detectors[0].Name(), len(req.Items)))
	defer func() { sc.end(err) }()

	// One graph resolution serves every item.
	g, hash, cacheState, err := s.resolveGraph(sc.ctx, req.Trace, req.GraphHash)
	if err != nil {
		return nil, err
	}

	results := make([]BatchItemResult, len(req.Items))
	itemRecs := make([]*obs.Recorder, len(req.Items))
	perr := par.ForEach(sc.ctx, workers, len(req.Items), func(worker, i int) error {
		item := &req.Items[i]
		itemStart := time.Now()
		irec := obs.NewRecorder()
		itemRecs[i] = irec
		itemErr := item.Validate(g.NumNodes())
		if itemErr == nil {
			results[i], itemErr = detectObservation(obs.WithRecorder(sc.ctx, irec), item, g, detectors[worker], req.K)
		}
		if itemErr != nil {
			// Per-item isolation: every failure — a bad item, or the batch
			// deadline catching this item mid-solve — lands in this item's
			// own Error field. Completed results are never discarded.
			results[i].Error = itemErr.Error()
		}
		results[i].Name = item.Name
		results[i].ElapsedMS = millis(time.Since(itemStart))
		return nil
	})
	// A batch-wide cancellation or deadline stops the fan-out between
	// items: finished work is kept, and items that never started report
	// the batch-wide cause in their own Error field so the response stays
	// index-aligned with the request.
	if cerr := sc.ctx.Err(); cerr != nil {
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
		sc.rec.MergeFrom(itemRecs[i])
		if results[i].Error != "" {
			failed++
		}
	}
	return &DetectBatchResponse{
		Detector:     detectors[0].Name(),
		GraphHash:    hash,
		Cache:        cacheState,
		Items:        results,
		Failed:       failed,
		ElapsedMS:    millis(time.Since(sc.start)),
		StageTimings: sc.rec.StageMillis(),
		Algo:         sc.rec.CounterSetSnapshot(),
		TraceID:      obs.TraceID(sc.ctx),
	}, nil
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
