package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/server"
)

// outcome is what one checked response contributes to a run's metrics.
type outcome struct {
	// detections answered and infection events covered: the infected
	// nodes of each detected observation, or the events a session applied.
	detections  int
	events      int
	simulations int
	// f1 holds the response's identity F1 per scored detection.
	f1 []float64
	// elapsedMS is ridserve's own elapsed_ms (0 when the route has none).
	elapsedMS float64
	stages    map[string]float64
	algo      *obs.CounterSet
	// dirty and reused are a session detect's component accounting.
	dirty, reused int
	sessionID     string
}

// check compares one response with the call's reference answer. Any
// difference, a non-200 status or an undecodable body is an error: the
// request counts as failed.
func check(c *call, status int, body []byte) (outcome, error) {
	var out outcome
	if status != 200 {
		return out, fmt.Errorf("%s: status %d: %.200s", c.kind, status, body)
	}
	switch c.kind {
	case kindDetect:
		var r server.DetectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		out.elapsedMS, out.stages, out.algo = r.ElapsedMS, r.StageTimings, r.Algo
		return out, checkDetection(&out, &c.want, r.Initiators, r.Truth)
	case kindSimulate:
		var r server.SimulateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		out.elapsedMS, out.algo, out.simulations = r.ElapsedMS, r.Algo, 1
		if !slices.Equal(r.Observed, c.want.observed) {
			return out, fmt.Errorf("simulate: observed states differ from the in-process MFC run")
		}
		return out, nil
	case kindBatch:
		var r server.DetectBatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		out.elapsedMS, out.stages, out.algo = r.ElapsedMS, r.StageTimings, r.Algo
		if r.Failed != 0 || len(r.Items) != len(c.want.items) {
			return out, fmt.Errorf("batch: %d of %d items failed, %d expected", r.Failed, len(r.Items), len(c.want.items))
		}
		for i := range r.Items {
			if err := checkDetection(&out, &c.want.items[i], r.Items[i].Initiators, r.Items[i].Truth); err != nil {
				return out, fmt.Errorf("item %d: %w", i, err)
			}
		}
		return out, nil
	case kindSessionCreate:
		var r server.SessionResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		if r.SessionID == "" {
			return out, fmt.Errorf("session-create: empty session id")
		}
		out.sessionID = r.SessionID
		return out, nil
	case kindEvents:
		var r server.EventsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		if r.Applied != c.want.applied || r.Error != "" {
			return out, fmt.Errorf("events: applied %d of %d: %s", r.Applied, c.want.applied, r.Error)
		}
		out.events = r.Applied
		return out, nil
	case kindSessionDetect:
		var r server.SessionDetectResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return out, err
		}
		out.elapsedMS, out.stages, out.algo = r.ElapsedMS, r.StageTimings, r.Algo
		out.dirty, out.reused = r.Dirty, r.Reused
		if err := checkDetection(&out, &c.want, r.Initiators, nil); err != nil {
			return out, err
		}
		// Session detects score no truth themselves. The final one matched
		// the one-shot reference, so its F1 is the reference's.
		if c.want.truth {
			out.f1 = []float64{c.want.f1}
		}
		return out, nil
	case kindSessionDelete:
		return out, nil
	}
	return out, fmt.Errorf("unknown call kind %q", c.kind)
}

// checkDetection compares ranked initiators (node, state and score) and,
// when the response scores truth, its F1 bit for bit.
func checkDetection(out *outcome, w *want, got []server.RankedInitiator, truth *server.TruthReport) error {
	if !slices.Equal(got, w.initiators) {
		return fmt.Errorf("initiators differ from the in-process detection (%d returned, %d expected)", len(got), len(w.initiators))
	}
	out.detections++
	out.events += w.infected
	if truth == nil {
		return nil
	}
	if !w.truth || math.Float64bits(truth.F1) != math.Float64bits(w.f1) {
		return fmt.Errorf("truth F1 %v differs from the in-process %v", truth.F1, w.f1)
	}
	out.f1 = append(out.f1, truth.F1)
	return nil
}
