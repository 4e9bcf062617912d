package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SessionRequest is the POST /v1/sessions payload: open an event-sourced
// detection stream over a network, either submitted inline (the trace's
// snapshot and ground truth are ignored — sessions start with no node
// infected) or already cached by content hash.
type SessionRequest struct {
	// Trace supplies the network. Mutually exclusive with GraphHash.
	Trace *trace.Trace `json:"trace,omitempty"`
	// GraphHash reuses a cached network (as returned in
	// DetectResponse.GraphHash / SimulateResponse.GraphHash).
	GraphHash string `json:"graph_hash,omitempty"`
	// Beta is RID's per-extra-initiator penalty; zero defaults to 0.3.
	Beta float64 `json:"beta,omitempty"`
	// Alpha is the MFC boosting coefficient; zero defaults to 3.
	Alpha float64 `json:"alpha,omitempty"`
}

// SessionResponse is the POST /v1/sessions result.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	GraphHash string `json:"graph_hash"`
	Nodes     int    `json:"nodes"`
	Cache     string `json:"cache"` // "hit", "warm" or "miss"
}

// EventsRequest is the POST /v1/sessions/{id}/events payload: a batch of
// activation-link events applied in order.
type EventsRequest struct {
	Events []trace.Event `json:"events"`
}

// EventsResponse is the POST /v1/sessions/{id}/events result. On a
// validation failure mid-batch the valid prefix stays applied, Applied says
// how far the batch got, and Error carries the first rejection (status
// 400).
type EventsResponse struct {
	Applied     int    `json:"applied"`
	EventsTotal int64  `json:"events_total"`
	Infected    int    `json:"infected"`
	Error       string `json:"error,omitempty"`
	TraceID     string `json:"trace_id,omitempty"`
}

// SessionDetectResponse is the GET /v1/sessions/{id}/detect result: the
// same shape as DetectResponse plus the incremental work accounting.
type SessionDetectResponse struct {
	Detector   string            `json:"detector"`
	Initiators []RankedInitiator `json:"initiators"`
	Trees      int               `json:"trees"`
	Components int               `json:"components"`
	// Dirty components were re-extracted and re-solved by this call;
	// Reused ones served their cached fragments (Dirty + Reused =
	// Components).
	Dirty     int     `json:"dirty"`
	Reused    int     `json:"reused"`
	GraphHash string  `json:"graph_hash"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// StageTimings covers the dirty components' pipeline work only — reused
	// components spend nothing.
	StageTimings map[string]float64 `json:"stage_timings,omitempty"`
	Algo         *obs.CounterSet    `json:"algo_counters,omitempty"`
	TraceID      string             `json:"trace_id,omitempty"`
}

// handleSessionCreate opens a session. At capacity (after idle eviction)
// the request is shed with 429 + Retry-After, mirroring the worker pool's
// backpressure.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	g, hash, cacheState, err := s.resolveGraph(r.Context(), req.Trace, req.GraphHash)
	if err != nil {
		writeError(w, err)
		return
	}
	beta := req.Beta
	if beta == 0 {
		beta = 0.3
	}
	sess, err := ingest.NewSession(g, hash, core.RIDConfig{
		Alpha: req.Alpha, Beta: beta, Parallelism: s.cfg.Parallelism,
	})
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	id, err := s.sessions.Create(sess)
	if errors.Is(err, ingest.ErrSessionLimit) {
		s.reg.CountRejected()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "session limit reached; retry later"})
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{
		SessionID: id,
		GraphHash: hash,
		Nodes:     sess.Nodes(),
		Cache:     cacheState,
	})
}

// handleSessionEvents applies a batch of events. Application is a few map
// and union-find operations per event, so it runs inline rather than on
// the compute pool; its counters still land in the registry and the flight
// recorder.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionFrom(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req EventsRequest
	if err := decodeBody(w, r, &req, s.cfg.MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, badRequest("missing events"))
		return
	}
	sc := s.begin(r.Context(), "/v1/sessions/events", "", "")
	applied, err := sess.Apply(sc.ctx, req.Events)
	sc.detail = fmt.Sprintf("events=%d applied=%d", len(req.Events), applied)
	resp := EventsResponse{
		Applied:     applied,
		EventsTotal: sess.Events(),
		Infected:    sess.InfectedCount(),
		TraceID:     obs.TraceID(sc.ctx),
	}
	if err != nil {
		resp.Error = err.Error()
		err = badRequest("%v", err)
	}
	sc.kept = true
	sc.end(err)
	writeJSON(w, statusOf(err), resp)
}

// handleSessionDetect runs incremental detection inside the worker pool
// under the request deadline. ?k= truncates to the top-k ranked
// initiators; ?timeout_ms= tightens the deadline.
func (s *Server) handleSessionDetect(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionFrom(r)
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := queryInt(r, "k")
	if err != nil || k < 0 {
		writeError(w, badRequest("k must be a non-negative integer"))
		return
	}
	timeoutMS, err := queryInt(r, "timeout_ms")
	if err != nil || timeoutMS < 0 {
		writeError(w, badRequest("timeout_ms must be a non-negative integer"))
		return
	}
	s.runPooled(w, r, timeoutMS, func(ctx context.Context) (any, error) {
		return s.sessionDetect(ctx, sess, k)
	})
}

func (s *Server) sessionDetect(ctx context.Context, sess *ingest.Session, k int) (resp *SessionDetectResponse, err error) {
	sc := s.begin(ctx, "/v1/sessions/detect", "detect.session", "")
	defer func() { sc.end(err) }()
	det, stats, err := sess.Detect(sc.ctx)
	sc.detail = fmt.Sprintf("dirty=%d reused=%d", stats.Dirty, stats.Reused)
	if errors.Is(err, cascade.ErrNoInfected) {
		return nil, badRequest("session has no infected nodes yet; apply events first")
	}
	if err != nil {
		return nil, err
	}
	return &SessionDetectResponse{
		Detector:     "RID(incremental)",
		Initiators:   rankInitiators(det, k),
		Trees:        det.Trees,
		Components:   det.Components,
		Dirty:        stats.Dirty,
		Reused:       stats.Reused,
		GraphHash:    sess.GraphHash(),
		ElapsedMS:    millis(time.Since(sc.start)),
		StageTimings: sc.rec.StageMillis(),
		Algo:         sc.rec.CounterSetSnapshot(),
		TraceID:      obs.TraceID(sc.ctx),
	}, nil
}

// handleSessionDelete closes a session early (sessions also expire on
// idle TTL).
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Delete(r.PathValue("id")) {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "session not found"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) sessionFrom(r *http.Request) (*ingest.Session, error) {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if errors.Is(err, ingest.ErrNotFound) {
		return nil, &httpError{status: http.StatusNotFound, msg: "session not found"}
	}
	return sess, err
}

// queryInt parses an optional non-negative integer query parameter,
// returning 0 when absent.
func queryInt(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	return strconv.Atoi(v)
}
