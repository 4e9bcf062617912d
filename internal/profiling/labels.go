// Package profiling is the CPU-attribution layer: pprof goroutine labels
// that tag every sample the runtime profiler takes with the serving
// dimension it was spent on (route, model, stage, batch), a continuous
// profiler that captures short CPU-profile windows on a duty cycle, and a
// hand-rolled pprof-protobuf decoder that folds those windows into
// per-label, per-function aggregates. Together they close the triangle
// metrics → traces → profiles: a latency bucket's exemplar links to a
// trace, and the trace's route/stage links to where the CPU actually went.
//
// The package is stdlib-only and a leaf dependency: the server wraps
// requests in Do, the pipeline's stage label is switched by the same
// obs.Stage call that times each stage, and everything else — windows,
// decoding, aggregation, views — lives behind the Profiler.
package profiling

import (
	"context"
	"runtime/pprof"
)

// Label keys attached to CPU samples. Values are free-form but
// low-cardinality by construction: routes come from the server's route
// table, models from the diffusion registry and detector names, stages
// from the obs stage set.
const (
	// LabelRoute is the serving endpoint ("detect", "simulate", ...).
	LabelRoute = "route"
	// LabelModel is the diffusion model or detector that ran ("mfc",
	// "rid", ...).
	LabelModel = "model"
	// LabelStage is the pipeline stage (graph_build, components,
	// arborescence, tree_build, tree_dp, diffusion, ...), set by
	// obs.Stage under this same key.
	LabelStage = "stage"
	// LabelBatch marks work done on behalf of a batch request.
	LabelBatch = "batch"
)

// Do runs fn with the key/value label pairs merged onto the calling
// goroutine's pprof labels (and carried in fn's context, so goroutines fn
// spawns inherit them). It is a thin wrapper over runtime/pprof.Do kept
// here so callers share one vocabulary of label keys.
func Do(ctx context.Context, fn func(context.Context), kv ...string) {
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
