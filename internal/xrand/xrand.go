// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository. Every simulation, generator and
// experiment derives its randomness from an explicit *xrand.Rand seeded by
// the caller, so whole experiment suites are reproducible from a single
// seed. The generator is a SplitMix64 core (Steele, Lea, Flood 2014), which
// passes BigCrush for the uses here and supports cheap stream splitting.
package xrand

import (
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; use Split to derive independent generators for concurrent
// workers.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// golden is the SplitMix64 increment (odd, irrational-derived).
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the stream, uniform over all uint64.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new, statistically independent generator from r, advancing
// r by one step. Useful for giving each goroutine or trial its own stream.
func (r *Rand) Split() *Rand {
	// Mix the drawn value once more so parent and child streams do not
	// share prefixes.
	return New(r.Uint64() ^ 0x6a09e667f3bcc909)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation (rejection form).
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Bool returns true with probability p. p outside [0,1] is clamped.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, exactly as
// math/rand.Shuffle does (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over a dense index array: O(n) memory, O(n+k)
	// time; fine at the scales used here (n <= a few hundred thousand).
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	out := make([]int, k)
	copy(out, p[:k])
	return out
}
