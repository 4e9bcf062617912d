package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
)

// calls lists every request of the workload in a fixed order: priming,
// one pass over the open-loop order, then every unit.
func (in *inputs) calls() []call {
	out := slices.Clone(in.prime)
	for _, i := range in.order {
		out = append(out, in.pool[i])
	}
	for _, u := range in.units {
		out = append(out, u...)
	}
	return out
}

var workloads = []string{"detect-inline", "forensics-batch", "session-stream"}

// streamDigest hashes every request the workload sends, in order.
func streamDigest(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	in, err := makeInputs(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range in.calls() {
		fmt.Fprintf(h, "%s %s %d\n", c.method, c.path, len(c.body))
		h.Write(c.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestOneSeedOneRequestStream(t *testing.T) {
	for _, w := range workloads {
		if a, b := streamDigest(t, w, 7), streamDigest(t, w, 7); a != b {
			t.Errorf("%s: seed 7 produced two request streams (%s, %s)", w, a, b)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		if a, b := streamDigest(t, w, 7), streamDigest(t, w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", w)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := makeInputs("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]interval{{2, 4}, {6, 9}}, 0, 10, 5},
		{[]interval{{2, 6}, {4, 9}}, 0, 10, 7}, // overlapping: parallel children
		{[]interval{{2, 6}, {3, 4}}, 0, 10, 4}, // nested
		{[]interval{{-5, 3}, {8, 20}}, 0, 10, 5},
	} {
		if got := covered(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestAnalyzeSelfTime(t *testing.T) {
	spans := []span{
		{req: 0, parent: -1, name: "request", start: 0, end: 100},
		{req: 0, parent: 0, name: "core.detect", start: 10, end: 90},
		{req: 0, parent: 1, name: "cascade.extract", start: 10, end: 60},
		{req: 0, parent: 1, name: "isomit.tree_dp", start: 60, end: 85},
		// Two items solved in parallel under one request.
		{req: 1, parent: -1, name: "request", start: 200, end: 300},
		{req: 1, parent: 4, name: "cascade.extract", start: 210, end: 280},
		{req: 1, parent: 4, name: "cascade.extract", start: 220, end: 290},
		{req: 1, parent: -1, name: "cascade.components", probe: true, start: 300, end: 310},
	}
	lt := analyze(spans, 2)
	want := map[string]int64{"core.detect": 5, "cascade.extract": 50 + 70 + 70, "isomit.tree_dp": 25}
	for name, self := range want {
		if lt.self[name] != self {
			t.Errorf("self[%s] = %d, want %d", name, lt.self[name], self)
		}
	}
	if lt.incl["core.detect"] != 80 || lt.reqs["cascade.extract"] != 2 || lt.incl["cascade.components"] != 10 {
		t.Errorf("incl/reqs = %v %v", lt.incl, lt.reqs)
	}
	if lt.covered[0] != 80 || lt.covered[1] != 80 {
		t.Errorf("covered = %v, want [80 80]", lt.covered)
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if q := quantile(xs, 0.99); q != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", q)
	}
	if q := quantile(xs, 0.5); q != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", q)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median of 1,2,3,10 = %v, want 2.5", m)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}
