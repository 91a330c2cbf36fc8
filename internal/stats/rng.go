// Package stats provides deterministic pseudo-random number generation,
// primality utilities and summary statistics used throughout the simulator.
//
// Everything in this package is allocation-free on the hot paths and fully
// deterministic: the same seed always produces the same stream, regardless
// of platform. This property is load-bearing — the entire reproduction
// depends on simulated PMU runs being exactly repeatable.
package stats

import "math"

// RNG is a splitmix64 pseudo-random number generator.
//
// Splitmix64 is chosen over math/rand because it is seedable in O(1), has a
// tiny state (8 bytes, trivially copyable), passes BigCrush, and its output
// for a given seed is stable across Go releases. The zero value is a valid
// generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the given seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniformly distributed integer in [0, n).
// It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniformly distributed int in [lo, hi]. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Jitter returns a zero-mean integer jitter uniformly distributed in
// [-amp, +amp]. amp must be >= 0.
func (r *RNG) Jitter(amp uint64) int64 {
	if amp == 0 {
		return 0
	}
	return int64(r.Uint64n(2*amp+1)) - int64(amp)
}

// Zipf is a precomputed Zipf(s) distribution over [0, n).
// Rank 0 is the most probable outcome. It is used by the workload
// generators to produce the long-tail "few hotspots, thousands of entries"
// profiles the paper attributes to enterprise workloads.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the distribution. n must be positive, s must be positive.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with n <= 0")
	}
	if s <= 0 {
		panic("stats: NewZipf with s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0
	return &Zipf{cdf: cdf}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// CDF returns the cumulative probability of outcomes 0..i.
func (z *Zipf) CDF(i int) float64 { return z.cdf[i] }

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
