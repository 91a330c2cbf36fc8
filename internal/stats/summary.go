package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming summary statistics (Welford's algorithm)
// for a series of float64 observations. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the minimum observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the maximum observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String renders "mean ± stddev (min..max, n)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (%.4g..%.4g, n=%d)",
		s.Mean(), s.Stddev(), s.Min(), s.Max(), s.n)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped (and if all are skipped, 0 is returned).
// The paper reports improvement factors as "3-6x on average"; geometric
// means are the right aggregate for ratios.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Median returns the median of xs (copied, not mutated), or 0 when empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. Empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	rank := int(math.Ceil(p/100*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c) {
		rank = len(c) - 1
	}
	return c[rank]
}

// Histogram is a fixed-bucket histogram over [lo, hi) with out-of-range
// values clamped to the edge buckets. Used by wlgen to report block-size
// and latency distributions.
type Histogram struct {
	Lo, Hi  float64
	Buckets []uint64
	count   uint64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram with n <= 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	n := len(h.Buckets)
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Buckets[idx]++
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }
