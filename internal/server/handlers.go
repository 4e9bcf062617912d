package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/metrics"
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
	// Detector selects the method: rid (default), rid-tree, rid-positive,
	// rumor-centrality, jordan-center, degree-max or ensemble.
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
	Cache      string            `json:"cache"` // "hit" or "miss"
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
	// TraceID echoes the request's X-Trace-Id for log correlation.
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
	// "ltff", "pushpull", "sir", "voter"); empty defaults to "mfc". An
	// unknown name is a 400 listing the registered models.
	Model string `json:"model,omitempty"`
	// Params carries the model-specific parameters, decoded and validated
	// by the model itself (unknown keys, wrong types and out-of-range
	// values are 400s with the model's pinned message).
	Params map[string]any `json:"params,omitempty"`
	// Alpha is the legacy MFC boosting coefficient (pre-registry schema);
	// zero defaults to 3. Only valid when the effective model is "mfc",
	// and must not conflict with a params["alpha"] entry.
	Alpha float64 `json:"alpha,omitempty"`
	// DisableFlip is the legacy flag degrading MFC to a signed independent
	// cascade. Same restrictions as Alpha.
	DisableFlip bool `json:"disable_flip,omitempty"`
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
	// TraceID echoes the request's X-Trace-Id for log correlation.
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

// resolveGraph returns the built network for a trace and the cache state:
// "hit" from the LRU, "warm" from the snapshot store (zero-copy views over
// the persisted CSR file, skipping validation and index sorting), "miss"
// when it had to be rebuilt from the wire edges. Misses are persisted to
// the store for the next process. The trace must be pre-validated.
func (s *Server) resolveGraph(t *trace.Trace) (*sgraph.Graph, string, string, error) {
	hash := t.NetworkHash()
	if g, ok := s.cache.Get(hash); ok {
		s.reg.CountCache(true)
		return g, hash, "hit", nil
	}
	s.reg.CountCache(false)
	if g, err := s.snapshots.Load(hash); err == nil {
		s.cache.Put(hash, g)
		return g, hash, "warm", nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		// A corrupt snapshot never reaches serving: the loader rejected it,
		// and the rebuild below overwrites it with a good one.
		slog.Warn("server: snapshot load failed; rebuilding", "hash", hash, "err", err)
	}
	g, err := t.BuildGraph()
	if err != nil {
		return nil, "", "", badRequest("%v", err)
	}
	s.cache.Put(hash, g)
	if err := s.snapshots.Save(hash, g); err != nil {
		slog.Warn("server: snapshot save failed", "hash", hash, "err", err)
	}
	return g, hash, "miss", nil
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
	if err := req.Trace.Validate(); err != nil {
		writeError(w, badRequest("%v", err))
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
	start := time.Now()
	rec := obs.NewRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	if t := obs.TelemetryFrom(ctx); t != nil {
		t.SetRecorder(rec)
		t.SetDetail("detector=" + detector.Name())
	}
	// Every outcome — including early validation and timeout errors — lands
	// in the flight recorder with whatever spans and counters the pipeline
	// managed to record before failing.
	defer func() {
		fr := obs.FlightRecord{
			TraceID:   obs.TraceID(ctx),
			Route:     "/v1/detect",
			Detail:    "detector=" + detector.Name(),
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
	span := obs.Stage(ctx, obs.StageGraphBuild)
	g, hash, cacheState, err := s.resolveGraph(req.Trace)
	span.End()
	if err != nil {
		return nil, err
	}
	span = obs.Stage(ctx, obs.StageSnapshot)
	snap, err := req.Trace.SnapshotOn(g)
	span.End()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	det, err := core.DetectWithContext(ctx, detector, snap)
	if err != nil {
		return nil, err
	}
	s.reg.MergeRecorder(rec)
	resp = &DetectResponse{
		Detector:     detector.Name(),
		Initiators:   rankInitiators(det, req.K),
		Trees:        det.Trees,
		Components:   det.Components,
		GraphHash:    hash,
		Cache:        cacheState,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
		StageTimings: rec.StageMillis(),
		Algo:         rec.CounterSetSnapshot(),
		TraceID:      obs.TraceID(ctx),
	}
	if seeds, _, err := req.Trace.GroundTruth(); err == nil && len(seeds) > 0 {
		detected := make([]int, len(resp.Initiators))
		for i, ri := range resp.Initiators {
			detected[i] = ri.Node
		}
		id := metrics.EvalIdentity(detected, seeds)
		resp.Truth = &TruthReport{Precision: id.Precision, Recall: id.Recall, F1: id.F1}
	}
	s.reg.Observe("detect."+detector.Name(), time.Since(start))
	return resp, nil
}

// rankInitiators orders a detection by descending confidence (ties and
// unscored detectors by ascending node ID) and truncates to k when k > 0.
func rankInitiators(det *core.Detection, k int) []RankedInitiator {
	out := make([]RankedInitiator, len(det.Initiators))
	for i, v := range det.Initiators {
		out[i] = RankedInitiator{Node: v}
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
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// handleSimulate runs one diffusion cascade inside the worker pool,
// dispatching to whichever registered model the request names.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if (req.Trace == nil) == (req.GraphHash == "") {
		writeError(w, badRequest("exactly one of trace or graph_hash is required"))
		return
	}
	if req.Trace != nil {
		if err := req.Trace.Validate(); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
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
	start := time.Now()
	name := req.Model
	if name == "" {
		name = "mfc"
	}
	var cs obs.CounterSet
	defer func() {
		fr := obs.FlightRecord{
			TraceID:   obs.TraceID(ctx),
			Route:     "/v1/simulate",
			Detail:    "model=" + name,
			Start:     start,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			Status:    statusOf(err),
		}
		if !cs.Zero() {
			algo := cs
			fr.Algo = &algo
		}
		if err != nil {
			fr.Error = err.Error()
		}
		s.recordFlight(fr)
	}()
	var (
		g          *sgraph.Graph
		hash       string
		cacheState string
	)
	if req.Trace != nil {
		var err error
		g, hash, cacheState, err = s.resolveGraph(req.Trace)
		if err != nil {
			return nil, err
		}
	} else {
		hash = req.GraphHash
		g, cacheState, err = s.lookupGraph(req.GraphHash)
		if err != nil {
			return nil, err
		}
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
	params := make(diffusion.Params, len(req.Params)+2)
	for k, v := range req.Params {
		params[k] = v
	}
	// Legacy pre-registry schema: top-level alpha / disable_flip map onto
	// the mfc model's params of the same name.
	if req.Alpha != 0 {
		if name != "mfc" {
			return nil, badRequest("legacy field %q requires model %q (got %q)", "alpha", "mfc", name)
		}
		if _, dup := params["alpha"]; dup {
			return nil, badRequest("legacy field %q conflicts with params key %q", "alpha", "alpha")
		}
		params["alpha"] = req.Alpha
	}
	if req.DisableFlip {
		if name != "mfc" {
			return nil, badRequest("legacy field %q requires model %q (got %q)", "disable_flip", "mfc", name)
		}
		if _, dup := params["disable_flip"]; dup {
			return nil, badRequest("legacy field %q conflicts with params key %q", "disable_flip", "disable_flip")
		}
		params["disable_flip"] = true
	}
	if err := model.Validate(params); err != nil {
		return nil, badRequest("%v", err)
	}
	if cr, ok := model.(diffusion.CounterRecorder); ok {
		cr.SetCounters(&cs)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var c *diffusion.Cascade
	profiling.Do(ctx, func(context.Context) {
		c, err = model.Run(g, req.Initiators, states, xrand.New(seed))
	}, profiling.LabelModel, name, profiling.LabelStage, "diffusion")
	if err != nil {
		return nil, badRequest("%v", err)
	}
	s.reg.MergeCounterSet(&cs)
	if t := obs.TelemetryFrom(ctx); t != nil && !cs.Zero() {
		// Simulation records flat counters rather than stages; fold them
		// into a recorder so the exported span still carries algo.*.
		expRec := obs.NewRecorder()
		expRec.MergeCounterSet(&cs)
		t.SetRecorder(expRec)
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
		ElapsedMS:   float64(time.Since(start)) / float64(time.Millisecond),
		TraceID:     obs.TraceID(ctx),
	}
	if !cs.Zero() {
		algo := cs
		resp.Algo = &algo
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
	s.reg.Observe("simulate."+name, time.Since(start))
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
	slo := s.slo.Snapshot()
	snap.SLO = &slo
	if s.exporter != nil {
		export := s.exporter.Stats()
		snap.Export = &export
	}
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
