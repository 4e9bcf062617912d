// Package obs is the pipeline observability layer: per-stage wall-time
// spans and typed algorithm counters carried through context.Context, plus
// request trace IDs and a Prometheus text-format writer. It is
// stdlib-only and designed around one invariant: when no Recorder is
// attached to the context, timing and counting degenerate to a nil check —
// the instrumented hot paths (forest extraction, tree DP) pay only for the
// pprof stage label each stage boundary switches.
//
// Usage: a serving or CLI layer creates a Recorder per pipeline run,
// attaches it with WithRecorder, and reads StageMillis and
// CounterSetSnapshot when the run finishes. Library code brackets each
// stage with one call, which times the span and tags the goroutine's CPU
// samples with the same stage name:
//
//	span := obs.Stage(ctx, obs.StageComponents)
//	... work ...
//	span.End() // records the span and restores ctx's pprof labels
//
// Parallel stages open the same span on a worker's Accum
// (acc.Stage(ctx, name)), and count algorithm work into the Accum's
// CounterSet (acc.CS()); cold paths merge a CounterSet into the recorder
// directly. Stage names are chosen so the recorded set is a disjoint
// partition of the pipeline: stage durations can be summed and compared
// against the end-to-end latency without double counting.
package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// Stage names recorded by the RID pipeline, in execution order, plus the
// simulate route's diffusion run. They are disjoint (no stage nests inside
// another), so their durations sum to at most the end-to-end request time.
const (
	// StageGraphBuild is graph resolution: network hashing, the cache and
	// snapshot-store lookups, and adjacency construction on a miss.
	StageGraphBuild = "graph_build"
	// StageSnapshot is observed-state binding onto the built network.
	StageSnapshot = "snapshot"
	// StageComponents is infected-subgraph induction plus connected
	// component detection (Definition 6).
	StageComponents = "components"
	// StageArborescence is candidate-link scoring plus the log-space
	// Chu-Liu/Edmonds spanning forest, summed over components.
	StageArborescence = "arborescence"
	// StageTreeBuild is cascade-tree assembly, state imputation and edge
	// re-scoring after the arborescence solve.
	StageTreeBuild = "tree_build"
	// StageBinarize is the Figure 3 binary transform (budget DP only).
	StageBinarize = "binarize"
	// StageTreeDP is per-tree initiator inference (threshold rule,
	// penalized DP or budget DP), summed over trees.
	StageTreeDP = "tree_dp"
	// StageDiffusion is one diffusion-model run (simulation, not
	// detection).
	StageDiffusion = "diffusion"
)

// StageStat aggregates the observations of one stage within a Recorder.
type StageStat struct {
	// Count is the number of spans recorded under the stage name.
	Count int64
	// Total is the summed wall time; Max the longest single span.
	Total time.Duration
	Max   time.Duration
}

// Recorder accumulates per-stage wall times and typed counters for one
// pipeline run (typically one detect request). All methods are safe for
// concurrent use and safe on a nil receiver, where they no-op — callers
// thread the RecorderFrom(ctx) result unconditionally.
//
// Under the parallel pipeline, per-component and per-tree spans are summed
// across workers, so a stage's Total is aggregate work time and may exceed
// the request's wall time; the stage set stays disjoint, so Totals remain
// comparable with each other. Hot fan-out loops should batch through an
// Accum (one per worker) and Flush at stage end rather than contending on
// the recorder per item.
type Recorder struct {
	mu     sync.Mutex
	stages map[string]*StageStat

	// cs aggregates the typed algorithm-depth counters merged in by worker
	// Accums (or directly via MergeCounterSet); csMu serializes the merges.
	csMu sync.Mutex
	cs   CounterSet
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{stages: make(map[string]*StageStat)}
}

// stageLabel is the pprof label key a stage span switches; it matches
// profiling.LabelStage, which the CPU-profile aggregation groups by.
const stageLabel = "stage"

// setStageLabel tags the calling goroutine's CPU samples with the stage,
// keeping the labels ctx already carries (route, model). Goroutines spawned
// while it is set inherit it, which is how par fan-out workers are labeled
// without per-item cost. It costs one small label-set copy, so stage
// boundaries sit at per-stage or per-component granularity, never inside
// a per-tree loop.
func setStageLabel(ctx context.Context, stage string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels(stageLabel, stage)))
}

// Span is one in-flight stage: a wall-time measurement on a Recorder or
// a worker's Accum and, when opened by Stage or LabelStage, the
// goroutine's pprof stage label. The zero Span is valid and End is a no-op
// on it.
type Span struct {
	rec   *Recorder
	acc   *Accum
	stage string
	start time.Time
	ctx   context.Context // labels End restores; nil when none were switched
}

// Start opens a timing-only span under the stage name. On a nil recorder
// it returns the zero Span without reading the clock.
func (r *Recorder) Start(stage string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, stage: stage, start: time.Now()}
}

// Stage is the one instrumentation call per pipeline stage: it opens a
// span under the stage name on ctx's recorder (timing nothing when none is
// attached) and switches the calling goroutine's pprof stage label to the
// same name. End records the span and restores the labels ctx carries, so
// CPU samples and span timings share one stage vocabulary.
func Stage(ctx context.Context, stage string) Span {
	return RecorderFrom(ctx).Start(stage).labeled(ctx, stage)
}

// LabelStage switches the goroutine's pprof stage label like Stage but
// records no span — for a fan-out region whose time is already recorded
// by finer per-item Accum spans, where a region span would count it
// twice. End restores the labels ctx carries.
func LabelStage(ctx context.Context, stage string) Span {
	return Span{}.labeled(ctx, stage)
}

// labeled switches the goroutine's stage label and arms End to restore
// ctx's labels.
func (s Span) labeled(ctx context.Context, stage string) Span {
	setStageLabel(ctx, stage)
	s.ctx = ctx
	return s
}

// End records the span's elapsed wall time onto its Recorder or Accum
// (an Accum batches it without locking) and restores the pprof labels of
// the context the span was opened with.
func (s Span) End() {
	switch {
	case s.rec != nil:
		s.rec.observe(s.stage, time.Since(s.start))
	case s.acc != nil:
		s.acc.observe(s.stage, time.Since(s.start))
	}
	if s.ctx != nil {
		pprof.SetGoroutineLabels(s.ctx)
	}
}

func (r *Recorder) observe(stage string, d time.Duration) {
	r.merge(stage, StageStat{Count: 1, Total: d, Max: d})
}

// merge folds a pre-aggregated stat (one span, or a worker's Accum batch)
// into the stage.
func (r *Recorder) merge(stage string, add StageStat) {
	r.mu.Lock()
	st := r.stages[stage]
	if st == nil {
		st = &StageStat{}
		r.stages[stage] = st
	}
	st.Count += add.Count
	st.Total += add.Total
	if add.Max > st.Max {
		st.Max = add.Max
	}
	r.mu.Unlock()
}

// Stages returns a copy of the per-stage aggregates.
func (r *Recorder) Stages() map[string]StageStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageStat, len(r.stages))
	for name, st := range r.stages {
		out[name] = *st
	}
	return out
}

// StageMillis returns the total wall time per stage in milliseconds — the
// shape served as a detect response's stage_timings.
func (r *Recorder) StageMillis() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.stages))
	for name, st := range r.stages {
		out[name] = float64(st.Total) / float64(time.Millisecond)
	}
	return out
}

// MergeFrom folds another recorder's stage aggregates and typed counters
// into r — how a batch request rolls its per-item recorders
// up into one batch-level view whose stage totals and algo counters sum
// over items. No-op when either recorder is nil. The source recorder is
// read under its own locks, so merging while other goroutines still write
// to it is safe (their late writes are simply not picked up).
func (r *Recorder) MergeFrom(other *Recorder) {
	if r == nil || other == nil {
		return
	}
	for name, st := range other.Stages() {
		r.merge(name, st)
	}
	other.csMu.Lock()
	cs := other.cs
	other.csMu.Unlock()
	if !cs.Zero() {
		r.MergeCounterSet(&cs)
	}
}

// MergeCounterSet folds a typed counter batch into the recorder. No-op on
// a nil recorder or nil batch.
func (r *Recorder) MergeCounterSet(cs *CounterSet) {
	if r == nil || cs == nil {
		return
	}
	r.csMu.Lock()
	r.cs.Merge(cs)
	r.csMu.Unlock()
}

// CounterSetSnapshot returns a copy of the merged typed counters, or nil
// when the recorder is nil or nothing was counted.
func (r *Recorder) CounterSetSnapshot() *CounterSet {
	if r == nil {
		return nil
	}
	r.csMu.Lock()
	cs := r.cs
	r.csMu.Unlock()
	if cs.Zero() {
		return nil
	}
	return &cs
}

// StageView is the wire shape of one stage aggregate: count, summed and
// max wall time in milliseconds.
type StageView struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// StageViews returns the per-stage aggregates in wire shape — the form
// flight-recorder entries and debug handlers serve.
func (r *Recorder) StageViews() map[string]StageView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageView, len(r.stages))
	for name, st := range r.stages {
		out[name] = StageView{
			Count:   st.Count,
			TotalMS: float64(st.Total) / float64(time.Millisecond),
			MaxMS:   float64(st.Max) / float64(time.Millisecond),
		}
	}
	return out
}

// Accum batches span and counter observations locally for one worker of a
// parallel stage, so the fan-out touches the shared recorder once per
// Flush instead of once per component or tree. Not safe for concurrent
// use — each worker owns its own Accum — and nil-safe throughout, so the
// no-recorder fast path stays a pointer check.
type Accum struct {
	rec    *Recorder
	stages map[string]*StageStat
	cs     CounterSet
}

// NewAccum returns a local accumulator bound to the recorder. On a nil
// recorder it returns nil, on which every Accum method no-ops.
func (r *Recorder) NewAccum() *Accum {
	if r == nil {
		return nil
	}
	return &Accum{rec: r, stages: make(map[string]*StageStat)}
}

// Start opens a timing-only local span under the stage name — for per-item
// spans inside a fan-out region labeled once by LabelStage. On a nil
// Accum it returns the zero Span without reading the clock.
func (a *Accum) Start(stage string) Span {
	if a == nil {
		return Span{}
	}
	return Span{acc: a, stage: stage, start: time.Now()}
}

// Stage is obs.Stage for one worker of a parallel stage: the span batches
// into the Accum, and the goroutine's pprof stage label is switched even
// on a nil Accum, so CPU profiles stay labeled with no recorder attached.
func (a *Accum) Stage(ctx context.Context, stage string) Span {
	return a.Start(stage).labeled(ctx, stage)
}

func (a *Accum) observe(stage string, d time.Duration) {
	st := a.stages[stage]
	if st == nil {
		st = &StageStat{}
		a.stages[stage] = st
	}
	st.Count++
	st.Total += d
	if d > st.Max {
		st.Max = d
	}
}

// CS returns the Accum's typed counter batch for hot kernels to write
// directly (it is merged into the recorder at Flush), or nil on a nil
// Accum — callers hand the result to nil-tolerant sinks.
func (a *Accum) CS() *CounterSet {
	if a == nil {
		return nil
	}
	return &a.cs
}

// Flush merges everything batched so far into the recorder and resets the
// Accum for reuse. Safe to call concurrently with other workers' flushes
// (the recorder serializes), but not with this Accum's own spans.
func (a *Accum) Flush() {
	if a == nil {
		return
	}
	for name, st := range a.stages {
		a.rec.merge(name, *st)
		delete(a.stages, name)
	}
	if !a.cs.Zero() {
		a.rec.MergeCounterSet(&a.cs)
		a.cs = CounterSet{}
	}
}

type recorderKey struct{}

// WithRecorder attaches a recorder to the context for the pipeline below.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the context's recorder, or nil when none is
// attached. Hot loops call this once up front and use the (nil-safe)
// recorder methods directly rather than re-resolving per iteration.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

type traceIDKey struct{}

// WithTraceID attaches a request-scoped trace ID to the context.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none is attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}
