package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sgraph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// DetectRequest is the POST /v1/detect payload: a complete wire-format
// ISOMIT instance plus detector options.
type DetectRequest struct {
	// Trace is the instance to solve (internal/trace schema, version 1).
	Trace *trace.Trace `json:"trace"`
	// Detector selects the method: rid (default), rid-tree, rid-positive
	// or rumor-centrality.
	Detector string `json:"detector,omitempty"`
	// Beta is RID's per-extra-initiator penalty; zero defaults to 0.3.
	Beta float64 `json:"beta,omitempty"`
	// Alpha is the MFC boosting coefficient; zero defaults to 3.
	Alpha float64 `json:"alpha,omitempty"`
	// K optionally truncates the response to the top-k ranked initiators.
	K int `json:"k,omitempty"`
	// TimeoutMS optionally tightens the per-request deadline below the
	// server default; it can never extend past it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// RankedInitiator is one detected initiator, ranked by score.
type RankedInitiator struct {
	Node int `json:"node"`
	// State is the inferred initial opinion as a trace state code (+1,
	// -1), 0 for identity-only detectors.
	State int8 `json:"state,omitempty"`
	// Score is the detector's confidence in [0, 1]; 0 for detectors
	// without a natural score (those rank by node ID).
	Score float64 `json:"score"`
}

// TruthReport scores the detection against the trace's ground truth.
type TruthReport struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// DetectResponse is the POST /v1/detect result.
type DetectResponse struct {
	Detector   string            `json:"detector"`
	Initiators []RankedInitiator `json:"initiators"`
	Trees      int               `json:"trees"`
	Components int               `json:"components"`
	GraphHash  string            `json:"graph_hash"`
	Cache      string            `json:"cache"` // "hit", "warm" or "miss"
	ElapsedMS  float64           `json:"elapsed_ms"`
	// StageTimings breaks ElapsedMS down by pipeline stage (graph_build,
	// snapshot, components, arborescence, tree_build, binarize, tree_dp),
	// in milliseconds. The stages are disjoint, so the values sum to at
	// most ElapsedMS; the remainder is unattributed overhead (JSON
	// decoding, queueing, ranking).
	StageTimings map[string]float64 `json:"stage_timings,omitempty"`
	// Algo carries the typed algorithm-depth counters recorded while
	// serving this request — which arborescence kernel ran and its heap and
	// contraction work, the extracted forest's shape histograms, the ISOMIT
	// DP modes and cell counts. Omitted when the pipeline counted nothing
	// (e.g. identity-only detectors).
	Algo *obs.CounterSet `json:"algo_counters,omitempty"`
	// TraceID is the request's W3C trace id (as in its traceparent), for
	// log correlation.
	TraceID string `json:"trace_id,omitempty"`
	// Truth is present when the trace carries ground-truth seeds.
	Truth *TruthReport `json:"truth,omitempty"`
}

// SimulateRequest is the POST /v1/simulate payload: one diffusion cascade
// over a submitted network or a previously cached one.
type SimulateRequest struct {
	// Trace supplies the network (its snapshot and ground truth are
	// ignored). Mutually exclusive with GraphHash.
	Trace *trace.Trace `json:"trace,omitempty"`
	// GraphHash reuses a network already in the server's cache (as
	// returned in DetectResponse.GraphHash / SimulateResponse.GraphHash).
	GraphHash string `json:"graph_hash,omitempty"`
	// Initiators and States seed the cascade; states are trace codes
	// (+1, -1), defaulting to all +1 when omitted.
	Initiators []int  `json:"initiators"`
	States     []int8 `json:"states,omitempty"`
	// Model selects the registered diffusion model ("mfc", "ic", "lt",
	// "pushpull", "sir", "voter"); empty defaults to "mfc". An
	// unknown name is a 400 listing the registered models.
	Model string `json:"model,omitempty"`
	// Params carries the model-specific parameters, decoded and validated
	// by the model itself (unknown keys, wrong types and out-of-range
	// values are 400s with the model's pinned message).
	Params map[string]any `json:"params,omitempty"`
	// Seed makes the run reproducible; zero defaults to 1.
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS optionally tightens the per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SimulateResponse is the POST /v1/simulate result.
type SimulateResponse struct {
	// Model is the registry name of the model that ran.
	Model       string  `json:"model"`
	Infected    int     `json:"infected"`
	Positive    int     `json:"positive"`
	Negative    int     `json:"negative"`
	Flips       int     `json:"flips"`
	Rounds      int     `json:"rounds"`
	SpreadCurve []int   `json:"spread_curve"`
	Observed    []int8  `json:"observed"` // final states as trace codes
	GraphHash   string  `json:"graph_hash"`
	Cache       string  `json:"cache"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Algo carries the run's typed diffusion counters (rounds, attempts,
	// activations, flips).
	Algo *obs.CounterSet `json:"algo_counters,omitempty"`
	// TraceID is the request's W3C trace id (as in its traceparent), for
	// log correlation.
	TraceID string `json:"trace_id,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// httpError carries a status code with a client-facing message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusOf maps a handler error to the HTTP status it is served with (200
// for nil) — shared by writeError and the flight recorder so a retained
// record always matches the response the client saw.
func statusOf(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, core.ErrUnknownDetector):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the access log only.
		return 499
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// handleDetect runs one detection inside the worker pool under the
// request deadline.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if err := s.decodeDetect(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Trace == nil {
		writeError(w, badRequest("missing trace"))
		return
	}
	if req.K < 0 {
		writeError(w, badRequest("k must be non-negative, got %d", req.K))
		return
	}
	detector, err := core.NewDetector(req.Detector, req.Alpha, req.Beta, s.cfg.Parallelism)
	if err != nil {
		writeError(w, err)
		return
	}
	s.runPooled(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		// The detector name rides as the model pprof label so per-detector
		// CPU shows up in /debug/hotspots alongside per-model simulation.
		var resp any
		var derr error
		profiling.Do(ctx, func(ctx context.Context) {
			resp, derr = s.detect(ctx, &req, detector)
		}, profiling.LabelModel, detector.Name())
		return resp, derr
	})
}

func (s *Server) detect(ctx context.Context, req *DetectRequest, detector core.Detector) (resp *DetectResponse, err error) {
	sc := s.begin(ctx, "/v1/detect", "detect."+detector.Name(), "detector="+detector.Name())
	defer func() { sc.end(err) }()
	g, hash, cacheState, err := s.resolveGraph(sc.ctx, req.Trace, "")
	if err != nil {
		return nil, err
	}
	item, err := detectObservation(sc.ctx, req.Trace.Observation(), g, detector, req.K)
	if err != nil {
		return nil, err
	}
	return &DetectResponse{
		Detector:     detector.Name(),
		Initiators:   item.Initiators,
		Trees:        item.Trees,
		Components:   item.Components,
		GraphHash:    hash,
		Cache:        cacheState,
		ElapsedMS:    millis(time.Since(sc.start)),
		StageTimings: sc.rec.StageMillis(),
		Algo:         item.Algo,
		TraceID:      obs.TraceID(sc.ctx),
		Truth:        item.Truth,
	}, nil
}

// handleSimulate runs one diffusion cascade inside the worker pool,
// dispatching to whichever registered model the request names.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Initiators) == 0 {
		writeError(w, badRequest("missing initiators"))
		return
	}
	if len(req.States) != 0 && len(req.States) != len(req.Initiators) {
		writeError(w, badRequest("%d states for %d initiators", len(req.States), len(req.Initiators)))
		return
	}
	s.runPooled(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		return s.simulate(ctx, &req)
	})
}

func (s *Server) simulate(ctx context.Context, req *SimulateRequest) (resp *SimulateResponse, err error) {
	name := req.Model
	if name == "" {
		name = "mfc"
	}
	sc := s.begin(ctx, "/v1/simulate", "simulate."+name, "model="+name)
	defer func() { sc.end(err) }()
	g, hash, cacheState, err := s.resolveGraph(sc.ctx, req.Trace, req.GraphHash)
	if err != nil {
		return nil, err
	}
	states := make([]sgraph.State, len(req.Initiators))
	for i := range states {
		states[i] = sgraph.StatePositive
		if i < len(req.States) {
			switch req.States[i] {
			case 1:
			case -1:
				states[i] = sgraph.StateNegative
			default:
				return nil, badRequest("states[%d]: code %d not concrete (want +1 or -1)", i, req.States[i])
			}
		}
	}
	model, err := diffusion.Lookup(name)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := model.Validate(req.Params); err != nil {
		return nil, badRequest("%v", err)
	}
	var cs obs.CounterSet
	if cr, ok := model.(diffusion.CounterRecorder); ok {
		cr.SetCounters(&cs)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var c *diffusion.Cascade
	profiling.Do(sc.ctx, func(ctx context.Context) {
		span := obs.Stage(ctx, obs.StageDiffusion)
		c, err = model.Run(g, req.Initiators, states, xrand.New(seed))
		span.End()
	}, profiling.LabelModel, name)
	sc.rec.MergeCounterSet(&cs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	resp = &SimulateResponse{
		Model:       name,
		Infected:    c.NumInfected(),
		Flips:       c.Flips,
		Rounds:      c.Rounds,
		SpreadCurve: c.SpreadCurve(),
		Observed:    make([]int8, len(c.States)),
		GraphHash:   hash,
		Cache:       cacheState,
		ElapsedMS:   millis(time.Since(sc.start)),
		Algo:        sc.rec.CounterSetSnapshot(),
		TraceID:     obs.TraceID(sc.ctx),
	}
	for v, st := range c.States {
		resp.Observed[v] = int8(st)
		switch st {
		case sgraph.StatePositive:
			resp.Positive++
		case sgraph.StateNegative:
			resp.Negative++
		}
	}
	return resp, nil
}

// handleHealthz bypasses the pool: liveness must answer even under full
// saturation.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the registry snapshot plus live gauges: JSON by
// default (wire-compatible with PR 1), Prometheus text format with
// ?format=prometheus, OpenMetrics 1.0 (trace-id exemplars on latency
// buckets, # EOF terminator) with ?format=openmetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot(QueueSnapshot{
		Depth:    s.pool.Depth(),
		Capacity: s.pool.Capacity(),
		Workers:  s.pool.Workers(),
	}, s.cache.Len(), s.cache.Capacity())
	sessions := s.sessions.Stats()
	snap.Sessions = &sessions
	snap.Profiling = s.profilingSnapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = RenderPrometheus(w, snap)
	case "openmetrics":
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = RenderOpenMetrics(w, snap)
	default:
		writeError(w, badRequest("unknown format %q (want json, prometheus or openmetrics)", format))
	}
}

// decodeBody strictly decodes one JSON value from a size-capped body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("invalid JSON: %v", err)
	}
	return nil
}
