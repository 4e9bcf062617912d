package diffusion

// This file defines the pluggable model layer: every spread process in
// this package — the paper's MFC, the classical references (IC, LT, SIR,
// Voter) and the signed push/pull model from the related work — implements
// the Model interface and registers a factory under its wire name.
// Callers (the /v1/simulate handler, cmd/mfcsim, the experiment harness)
// dispatch through Lookup and never switch on model names, so a new model
// registered here is immediately runnable everywhere.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/xrand"
)

// Params is the generic per-model parameter blob, decoded from JSON or
// assembled from CLI flags. Each model documents the keys it accepts;
// Validate rejects unknown keys, wrong types and out-of-range values with
// pinned, client-facing messages. A nil Params selects every default.
type Params map[string]any

// Model is one diffusion process. Lookup returns a fresh instance holding
// the model's defaults; Validate decodes a Params blob into the model's
// typed config (calling it is optional — Run without it uses the
// defaults); Run executes one cascade. Instances are cheap, single-use
// values: configure one per run (or reuse it for identical runs), and do
// not share one instance across goroutines.
type Model interface {
	// Name returns the registry name ("mfc", "pushpull", ...).
	Name() string
	// Validate decodes params into the model's typed config, replacing the
	// defaults for the keys present. It reports unknown keys, wrong types
	// and out-of-range values; on error the previous config is kept.
	Validate(params Params) error
	// Run executes one cascade from the given initiators and initial
	// states under the model's current config.
	Run(g *sgraph.Graph, initiators []int, states []sgraph.State, rng *xrand.Rand) (*Cascade, error)
}

// CounterRecorder is implemented by models that record algorithm-depth
// run statistics (rounds, attempts, activations, flips, exchanges) into an
// obs.CounterSet. All built-in models implement it; the server uses it to
// thread algo_counters through /v1/simulate.
type CounterRecorder interface {
	SetCounters(*obs.CounterSet)
}

// ProgressReporter is implemented by models that can stream per-round
// progress while a cascade runs (the hook behind cmd/mfcsim -progress).
type ProgressReporter interface {
	SetOnRound(func(RoundProgress))
}

var registry = struct {
	sync.RWMutex
	factories map[string]func() Model
}{factories: make(map[string]func() Model)}

// Register adds a model factory under its name. Registration happens at
// init time; a duplicate or empty name is a programming error and panics.
func Register(name string, factory func() Model) {
	if name == "" || factory == nil {
		panic("diffusion: Register with empty name or nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic("diffusion: duplicate model " + name)
	}
	registry.factories[name] = factory
}

// Lookup returns a fresh instance of the named model with its defaults
// applied. The unknown-name error lists every registered model and is
// served verbatim as a 400 by /v1/simulate.
func Lookup(name string) (Model, error) {
	registry.RLock()
	factory, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("diffusion: unknown model %q (registered: %s)",
			name, strings.Join(Models(), ", "))
	}
	return factory(), nil
}

// Models returns the registered model names in sorted order.
func Models() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// paramDecoder pulls typed values out of a Params blob, tracking which
// keys were consumed so leftovers surface as unknown-param errors. All
// messages are pinned: the server serves them verbatim as 400 bodies.
type paramDecoder struct {
	model string
	p     Params
	used  map[string]bool
	known []string // accepted keys in decode-call order
	err   error
}

func newParamDecoder(model string, p Params) *paramDecoder {
	return &paramDecoder{model: model, p: p, used: make(map[string]bool, len(p))}
}

func (d *paramDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("diffusion: model %q: %s", d.model, fmt.Sprintf(format, args...))
	}
}

// number coerces the JSON/CLI numeric encodings (json decodes every number
// to float64; flag-built Params carry native ints and floats).
func number(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}

// Float reads an optional float key, returning def when absent.
func (d *paramDecoder) Float(key string, def float64) float64 {
	d.known = append(d.known, key)
	v, ok := d.p[key]
	if !ok {
		return def
	}
	d.used[key] = true
	n, ok := number(v)
	if !ok {
		d.fail("param %q: want number, got %T", key, v)
		return def
	}
	return n
}

// Int reads an optional integer key; a fractional number is an error.
func (d *paramDecoder) Int(key string, def int) int {
	d.known = append(d.known, key)
	v, ok := d.p[key]
	if !ok {
		return def
	}
	d.used[key] = true
	n, ok := number(v)
	if !ok {
		d.fail("param %q: want integer, got %T", key, v)
		return def
	}
	if n != math.Trunc(n) {
		d.fail("param %q: want integer, got %g", key, n)
		return def
	}
	return int(n)
}

// Bool reads an optional boolean key.
func (d *paramDecoder) Bool(key string, def bool) bool {
	d.known = append(d.known, key)
	v, ok := d.p[key]
	if !ok {
		return def
	}
	d.used[key] = true
	b, ok := v.(bool)
	if !ok {
		d.fail("param %q: want boolean, got %T", key, v)
		return def
	}
	return b
}

// Err returns the first decode error, or an unknown-key error naming the
// keys the model accepts (in decode order, so the message is stable).
func (d *paramDecoder) Err() error {
	if d.err != nil {
		return d.err
	}
	var unknown []string
	for key := range d.p {
		if !d.used[key] {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	if len(d.known) == 0 {
		return fmt.Errorf("diffusion: model %q: unknown param %q (model takes no params)", d.model, unknown[0])
	}
	return fmt.Errorf("diffusion: model %q: unknown param %q (accepts: %s)",
		d.model, unknown[0], strings.Join(d.known, ", "))
}
