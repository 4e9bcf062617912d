package profiling

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Interval: 60 * time.Second}.withDefaults()
	if c.Window != 1200*time.Millisecond {
		t.Errorf("default window for 60s interval = %v, want 1.2s (2%% duty)", c.Window)
	}
	if c = (Config{Interval: 20 * time.Minute}).withDefaults(); c.Window != 10*time.Second {
		t.Errorf("default window for 20m interval = %v, want the 10s cap", c.Window)
	}
	if c.Rings != 16 {
		t.Errorf("default rings = %d, want 16", c.Rings)
	}
	// CI smoke uses -profile-interval 1s with no window: must clamp, not
	// produce window >= interval.
	c = Config{Interval: time.Second}.withDefaults()
	if c.Window <= 0 || c.Window >= c.Interval {
		t.Errorf("1s interval gave window %v", c.Window)
	}
	c = Config{Interval: time.Second, Window: 5 * time.Second}.withDefaults()
	if c.Window != 500*time.Millisecond {
		t.Errorf("oversized window clamped to %v, want 500ms", c.Window)
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Error("nil profiler reports enabled")
	}
	p.Start()
	p.Stop()
	if w := p.Windows(); w != nil {
		t.Errorf("nil Windows = %v", w)
	}
	if _, ok := p.WindowFor(time.Now(), time.Now()); ok {
		t.Error("nil WindowFor found a window")
	}
	if tot := p.Totals(); tot.Windows != 0 {
		t.Errorf("nil Totals = %+v", tot)
	}
	if NewProfiler(Config{}) != nil {
		t.Error("NewProfiler with zero interval should be nil")
	}
}

// fakeProfile builds a gzipped profile with the given labeled CPU chunks.
type chunk struct {
	route, model, stage string
	fn                  string
	nanos               uint64
}

func fakeProfile(chunks []chunk) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, v := range strs {
			if v == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var w pbWriter
	w.message(1, func(m *pbWriter) { m.varintField(1, 1); m.varintField(2, 2) })
	w.message(1, func(m *pbWriter) { m.varintField(1, 3); m.varintField(2, 4) })
	for i, c := range chunks {
		locID := uint64(i + 1)
		fnName := idx(c.fn)
		routeK, routeV := idx("route"), idx(c.route)
		modelK, modelV := idx("model"), idx(c.model)
		stageK, stageV := idx("stage"), idx(c.stage)
		w.message(2, func(m *pbWriter) {
			m.packedField(1, locID)
			m.packedField(2, 1, c.nanos)
			if c.route != "" {
				m.message(3, func(l *pbWriter) { l.varintField(1, routeK); l.varintField(2, routeV) })
			}
			if c.model != "" {
				m.message(3, func(l *pbWriter) { l.varintField(1, modelK); l.varintField(2, modelV) })
			}
			if c.stage != "" {
				m.message(3, func(l *pbWriter) { l.varintField(1, stageK); l.varintField(2, stageV) })
			}
		})
		w.message(4, func(m *pbWriter) {
			m.varintField(1, locID)
			m.message(4, func(l *pbWriter) { l.varintField(1, locID) })
		})
		w.message(5, func(m *pbWriter) { m.varintField(1, locID); m.varintField(2, fnName) })
	}
	for _, s := range strs {
		w.stringField(6, s)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(w.buf.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestProfilerDutyCycleAndViews(t *testing.T) {
	p := NewProfiler(Config{Interval: time.Hour, Rings: 2})
	windows := [][]chunk{
		{
			{route: "detect", stage: "tree_dp", fn: "core.solve", nanos: 60_000_000},
			{route: "detect", stage: "tree_dp", fn: "core.binarize", nanos: 20_000_000},
			{fn: "runtime.gc", nanos: 20_000_000},
		},
		{
			{route: "detect", stage: "tree_dp", fn: "core.solve", nanos: 90_000_000},
			{route: "simulate", model: "mfc", fn: "diffusion.step", nanos: 30_000_000},
		},
		{
			{route: "detect", stage: "tree_dp", fn: "core.solve", nanos: 10_000_000},
		},
	}
	var captured int
	var capturedMu sync.Mutex
	var sink *bytes.Buffer
	p.startProfile = func(w *bytes.Buffer) error {
		capturedMu.Lock()
		defer capturedMu.Unlock()
		if captured >= len(windows) {
			return errors.New("exhausted")
		}
		w.Write(fakeProfile(windows[captured]))
		captured++
		sink = w
		return nil
	}
	p.stopProfile = func() { _ = sink }
	// Drive the capture loop synchronously.
	p.sleep = func(d time.Duration, cancel <-chan struct{}) bool { return true }

	for range windows {
		p.captureWindow()
	}
	p.captureWindow() // startProfile fails → skipped window

	tot := p.Totals()
	if tot.Windows != 3 || tot.Skipped != 1 || tot.DecodeErrors != 0 {
		t.Fatalf("totals = %+v", tot)
	}
	wantCPU := (60 + 20 + 20 + 90 + 30 + 10) * 1e-3 // nanos→seconds: 230ms
	if diff := tot.CPUSeconds - wantCPU; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cpu seconds = %v, want %v", tot.CPUSeconds, wantCPU)
	}
	// 20ms of runtime.gc is unattributed out of 230ms total.
	wantRatio := 210.0 / 230.0
	if diff := tot.Attributed - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("attributed ratio = %v, want %v", tot.Attributed, wantRatio)
	}
	if tot.ByRoute["detect"] != 180_000_000 || tot.ByRoute["simulate"] != 30_000_000 {
		t.Errorf("by route = %v", tot.ByRoute)
	}
	if tot.ByModel["mfc"] != 30_000_000 {
		t.Errorf("by model = %v", tot.ByModel)
	}
	if tot.ByStage["tree_dp"] != 180_000_000 {
		t.Errorf("by stage = %v", tot.ByStage)
	}

	// Ring holds only the last 2 of 3 windows.
	ring := p.Windows()
	if len(ring) != 2 {
		t.Fatalf("ring size = %d, want 2", len(ring))
	}
	if ring[0].Seq != 2 || ring[1].Seq != 3 {
		t.Errorf("ring seqs = %d, %d", ring[0].Seq, ring[1].Seq)
	}

	// Top functions and deltas: window 2's detect/tree_dp group vs
	// window 1's (evicted — deltas still computable between retained
	// windows only; check within the ring).
	key := GroupKey{Route: "detect", Stage: "tree_dp"}
	g2, g3 := ring[0].Groups[key], ring[1].Groups[key]
	if g2 == nil || g3 == nil {
		t.Fatalf("missing detect/tree_dp groups: %v %v", g2, g3)
	}
	top := g3.TopFuncs(5, g2)
	if len(top) != 1 || top[0].Func != "core.solve" {
		t.Fatalf("top funcs = %+v", top)
	}
	if top[0].Nanos != 10_000_000 || top[0].DeltaNanos != 10_000_000-90_000_000 {
		t.Errorf("top[0] = %+v", top[0])
	}

	// WindowFor: a span inside window 3's capture maps to seq 3.
	w3 := ring[1]
	if seq, ok := p.WindowFor(w3.Start, w3.End); !ok || seq != 3 {
		t.Errorf("WindowFor(w3) = %d, %v", seq, ok)
	}
	if _, ok := p.WindowFor(w3.End.Add(time.Hour), w3.End.Add(time.Hour+time.Second)); ok {
		t.Error("WindowFor far future should miss")
	}
}

func TestProfilerStartStop(t *testing.T) {
	p := NewProfiler(Config{Interval: 50 * time.Millisecond, Window: 10 * time.Millisecond})
	// Replace capture hooks so the test does not fight the real CPU
	// profiler (which other tests in the package use).
	p.startProfile = func(w *bytes.Buffer) error {
		w.Write(fakeProfile([]chunk{{route: "detect", fn: "f", nanos: 1000}}))
		return nil
	}
	p.stopProfile = func() {}
	p.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Totals().Windows >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	if got := p.Totals().Windows; got < 2 {
		t.Errorf("captured %d windows in 2s, want >= 2", got)
	}
	p.Stop() // second Stop is a no-op
}

func TestLabelHelpers(t *testing.T) {
	// Do must carry the labels in the callback's context (goroutine
	// propagation is covered end-to-end by TestLabelAttribution).
	ran := false
	Do(context.Background(), func(ctx context.Context) {
		ran = true
		if v, ok := pprof.Label(ctx, LabelRoute); !ok || v != "detect" {
			t.Errorf("route label in ctx = %q, %v", v, ok)
		}
	}, LabelRoute, "detect")
	if !ran {
		t.Fatal("Do did not run fn")
	}
}

// TestLabelAttribution is the mechanism check behind the acceptance
// criterion: CPU burned inside Do+obs.Stage must show up in the decoded
// profile under those labels.
func TestLabelAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot start CPU profile: %v", err)
	}
	Do(context.Background(), func(ctx context.Context) {
		span := obs.Stage(ctx, obs.StageTreeDP)
		busyLoop()
		span.End()
	}, LabelRoute, "detect")
	pprof.StopCPUProfile()

	prof, err := DecodeProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	ci := prof.CPUValueIndex()
	if ci < 0 {
		t.Fatalf("no cpu sample type: %+v", prof.SampleTypes)
	}
	var total, labeled int64
	for _, s := range prof.Samples {
		if ci >= len(s.Values) {
			continue
		}
		n := s.Values[ci]
		total += n
		if s.Labels[LabelRoute] == "detect" && s.Labels[LabelStage] == "tree_dp" {
			labeled += n
		}
	}
	if total == 0 {
		t.Skip("profiler took no samples (loaded or throttled CI)")
	}
	// Nearly all CPU of this test burns inside the labeled region; allow
	// headroom for runtime/GC samples on the test goroutine's behalf.
	if labeled*2 < total {
		t.Errorf("labeled %dns of %dns total (<50%%)", labeled, total)
	}
}
