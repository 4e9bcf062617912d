package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Parent advanced by one step; child stream differs from both the
	// parent's continuation and a same-seed generator.
	cont := parent.Uint64()
	if child.Uint64() == cont {
		t.Error("child mirrors parent continuation")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(2)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBool(t *testing.T) {
	r := New(4)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %g", frac)
	}
}

func TestRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Range(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %g", v)
		}
	}
	if got := r.Range(3, 3); got != 3 {
		t.Errorf("Range(3,3) = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Range(5,2) did not panic")
		}
	}()
	r.Range(5, 2)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSample(t *testing.T) {
	r := New(8)
	s := r.Sample(100, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	if got := r.Sample(5, 0); got != nil {
		t.Errorf("Sample(5,0) = %v, want nil", got)
	}
	full := r.Sample(5, 5)
	if len(full) != 5 {
		t.Errorf("Sample(5,5) len = %d", len(full))
	}
	defer func() {
		if recover() == nil {
			t.Error("Sample(3,4) did not panic")
		}
	}()
	r.Sample(3, 4)
}

func TestSampleUniform(t *testing.T) {
	// Each element of [0,10) should appear in a 3-sample with rate 0.3.
	counts := make([]int, 10)
	r := New(9)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(10, 3) {
			counts[v]++
		}
	}
	for v, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.3) > 0.02 {
			t.Errorf("element %d rate = %g, want ~0.3", v, rate)
		}
	}
}

func TestShuffleSwapsOnly(t *testing.T) {
	r := New(10)
	vals := []int{1, 2, 3, 4, 5}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: %v", vals)
	}
}
