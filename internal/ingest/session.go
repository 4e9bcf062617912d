// Package ingest adds event-sourced snapshot construction and incremental
// detection on top of the RID pipeline: a Session receives activation-link
// events one at a time (or in batches), maintains the infected connected
// components with a union-find instead of re-running BFS, and re-solves
// only the components new events touched — clean components serve their
// cached detection fragments. Because component-scoped extraction and
// per-tree inference are bit-identical to the one-shot path (see
// cascade.Workspace and core.MergeComponents), a Session's Detect returns
// exactly what core.RID.Detect would return on the equivalent snapshot, at
// a fraction of the cost when few components changed.
package ingest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sgraph"
	"repro/internal/trace"
)

// unionFind maintains the infected components under monotone growth: nodes
// enter on infection and never leave, so path-halving plus union-by-size
// keeps every operation effectively constant. parent[v] < 0 means v is not
// infected yet.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = -1
	}
	return u
}

func (u *unionFind) makeSet(v int) {
	if u.parent[v] < 0 {
		u.parent[v] = int32(v)
		u.size[v] = 1
	}
}

func (u *unionFind) find(v int) int32 {
	r := int32(v)
	for u.parent[r] != r {
		u.parent[r] = u.parent[u.parent[r]] // path halving
		r = u.parent[r]
	}
	return r
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// Session is one event-sourced detection stream over a fixed diffusion
// network. All methods are safe for concurrent use; event application and
// detection serialize on the session's mutex.
type Session struct {
	mu        sync.Mutex
	rid       *core.RID
	ws        *cascade.Workspace
	g         *sgraph.Graph
	graphHash string
	states    []sgraph.State
	rounds    []int32 // lazily allocated on the first timed event; -1 = unknown
	applied   map[[2]int]bool
	uf        *unionFind
	// cache maps a component's union-find root to its detection fragment.
	// An event deletes the entries of every root it touches before any
	// union (union-by-size may keep a stale root id alive as the survivor),
	// so "dirty" is exactly "no cache entry".
	cache  map[int32]*core.ComponentDetection
	events int64
}

// NewSession builds an empty session (no node infected yet) over g.
// graphHash labels the network for responses and replay bookkeeping.
func NewSession(g *sgraph.Graph, graphHash string, ridCfg core.RIDConfig) (*Session, error) {
	rid, err := core.NewRID(ridCfg)
	if err != nil {
		return nil, err
	}
	return &Session{
		rid:       rid,
		ws:        cascade.NewWorkspace(),
		g:         g,
		graphHash: graphHash,
		states:    make([]sgraph.State, g.NumNodes()), // zero value is StateInactive
		applied:   make(map[[2]int]bool),
		uf:        newUnionFind(g.NumNodes()),
		cache:     make(map[int32]*core.ComponentDetection),
	}, nil
}

// GraphHash returns the network content hash the session was created with.
func (s *Session) GraphHash() string { return s.graphHash }

// Nodes returns the network's node count.
func (s *Session) Nodes() int { return s.g.NumNodes() }

// Events returns the number of events applied so far.
func (s *Session) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// InfectedCount returns the number of currently infected nodes.
func (s *Session) InfectedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.states {
		if infected(st) {
			n++
		}
	}
	return n
}

func infected(s sgraph.State) bool { return s.Active() || s == sgraph.StateUnknown }

// Apply validates and applies a batch of events in order, stopping at the
// first invalid one. It returns the number applied; on error the session
// keeps the valid prefix — callers can fix the offending event and resend
// the rest. A recorder attached to ctx receives the events-applied and
// union counters.
func (s *Session) Apply(ctx context.Context, events []trace.Event) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var unions int64
	n := 0
	var err error
	for i, e := range events {
		if err = s.applyOne(e, &unions); err != nil {
			err = fmt.Errorf("ingest: events[%d]: %w", i, err)
			break
		}
		n++
	}
	s.events += int64(n)
	if rec := obs.RecorderFrom(ctx); rec != nil && (n > 0 || unions > 0) {
		var cs obs.CounterSet
		cs.Ingest.EventsApplied = int64(n)
		cs.Ingest.Unions = unions
		rec.MergeCounterSet(&cs)
	}
	return n, err
}

// applyOne runs under the session mutex.
func (s *Session) applyOne(e trace.Event, unions *int64) error {
	if err := e.Validate(s.g.NumNodes()); err != nil {
		return err
	}
	if e.From >= 0 {
		if _, ok := s.g.HasEdge(e.From, e.To); !ok {
			return fmt.Errorf("ingest: event (%d,%d): no diffusion link %d -> %d", e.From, e.To, e.From, e.To)
		}
	}
	if err := e.ValidateAgainst(s.states, func(from, to int) bool {
		return s.applied[[2]int{from, to}]
	}); err != nil {
		return err
	}
	st, err := trace.StateFromCode(e.State)
	if err != nil {
		return err // unreachable after Validate, kept for safety
	}
	s.states[e.To] = st
	if e.Round >= 0 {
		if s.rounds == nil {
			s.rounds = make([]int32, s.g.NumNodes())
			for i := range s.rounds {
				s.rounds[i] = -1
			}
		}
		s.rounds[e.To] = e.Round
	}
	if e.From >= 0 {
		s.applied[[2]int{e.From, e.To}] = true
	}

	// Membership update: the new node joins the component of every infected
	// graph neighbor (connectivity is direction-blind, Definition 6). Each
	// neighbor's cached fragment is invalidated BEFORE the union so no
	// surviving root can keep a stale entry; the new node's component is
	// dirty by construction (fresh root, no entry).
	s.uf.makeSet(e.To)
	visit := func(u int) {
		if u == e.To || !infected(s.states[u]) {
			return
		}
		delete(s.cache, s.uf.find(u))
		if s.uf.union(e.To, u) {
			*unions++
		}
	}
	s.g.Out(e.To, func(ed sgraph.Edge) { visit(ed.To) })
	s.g.In(e.To, func(ed sgraph.Edge) { visit(ed.From) })
	return nil
}

// SetState corrects the observed opinion of an already-infected node (for
// example an "unknown" observation resolving to a concrete sign). The
// node's component is invalidated; membership is unchanged, so this is the
// cheapest way to dirty exactly one component.
func (s *Session) SetState(v int, code int8) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v < 0 || v >= s.g.NumNodes() {
		return fmt.Errorf("ingest: node %d out of range", v)
	}
	if !infected(s.states[v]) {
		return fmt.Errorf("ingest: node %d is not infected", v)
	}
	st, err := trace.StateFromCode(code)
	if err != nil {
		return err
	}
	if !infected(st) {
		return fmt.Errorf("ingest: state code %d would un-infect node %d (events are append-only)", code, v)
	}
	delete(s.cache, s.uf.find(v))
	s.states[v] = st
	return nil
}

// DetectStats reports how much work a Detect actually did.
type DetectStats struct {
	// Components is the number of infected connected components.
	Components int `json:"components"`
	// Dirty components were re-extracted and re-solved this call.
	Dirty int `json:"dirty"`
	// Reused components served their cached fragment.
	Reused int `json:"reused"`
}

// Detect runs incremental detection over the current event-sourced
// snapshot: components touched since the last Detect are re-solved, clean
// ones reuse their cached fragments, and the merge is bit-identical to
// core.RID.Detect on the same snapshot. Returns cascade.ErrNoInfected
// while no event has arrived. A recorder attached to ctx receives the
// dirty/reused counters plus the usual per-stage pipeline telemetry for
// the components actually solved.
func (s *Session) Detect(ctx context.Context) (*core.Detection, DetectStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats DetectStats

	// Group infected nodes by union-find root. Scanning node IDs ascending
	// yields members ascending and components ordered by smallest member —
	// the same partition and order sgraph.ConnectedComponents produces on
	// the induced subgraph, which the bit-identity contract needs.
	var order []int32
	members := make(map[int32][]int)
	for v, st := range s.states {
		if !infected(st) {
			continue
		}
		r := s.uf.find(v)
		if _, seen := members[r]; !seen {
			order = append(order, r)
		}
		members[r] = append(members[r], v)
	}
	if len(order) == 0 {
		return nil, stats, cascade.ErrNoInfected
	}
	stats.Components = len(order)

	snap := &cascade.Snapshot{G: s.g, States: s.states, Rounds: s.rounds}
	frags := make([]*core.ComponentDetection, len(order))
	for ci, r := range order {
		if frag, ok := s.cache[r]; ok {
			frags[ci] = frag
			stats.Reused++
			continue
		}
		trees, err := s.rid.ExtractComponentContext(ctx, s.ws, snap, members[r], ci)
		if err != nil {
			return nil, stats, err
		}
		frag, err := s.rid.DetectComponentContext(ctx, trees)
		if err != nil {
			return nil, stats, err
		}
		s.cache[r] = frag
		frags[ci] = frag
		stats.Dirty++
	}
	if rec := obs.RecorderFrom(ctx); rec != nil {
		var cs obs.CounterSet
		cs.Ingest.ComponentsDirty = int64(stats.Dirty)
		cs.Ingest.ComponentsReused = int64(stats.Reused)
		rec.MergeCounterSet(&cs)
	}
	return core.MergeComponents(frags), stats, nil
}
