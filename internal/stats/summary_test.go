package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Error("zero-value summary not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3)
	if s.Variance() != 0 || s.Stddev() != 0 {
		t.Error("variance of single observation not zero")
	}
	if s.Min() != 3 || s.Max() != 3 || s.Mean() != 3 {
		t.Error("single-observation stats wrong")
	}
}

func TestMeanMedianPercentile(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty-input aggregates not zero")
	}
	xs := []float64{5, 1, 3, 2, 4}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if xs[0] != 5 {
		t.Error("Median mutated its input")
	}
	even := []float64{1, 2, 3, 4}
	if Median(even) != 2.5 {
		t.Errorf("even Median = %v", Median(even))
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 200); got != 5 {
		t.Errorf("clamped P200 = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("GeoMean(3,3,3) = %v", got)
	}
	// Non-positive values are skipped.
	if got := GeoMean([]float64{-1, 0, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean with skips = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0}) != 0 {
		t.Error("degenerate GeoMean not zero")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -3, 42} {
		h.Add(x)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	// -3 clamps to bucket 0, 42 clamps to bucket 4.
	want := []uint64{3, 1, 1, 0, 2}
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: streaming Summary matches batch Mean for arbitrary inputs.
func TestQuickSummaryMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		var s Summary
		for _, x := range clean {
			s.Add(x)
		}
		if len(clean) == 0 {
			return s.Mean() == 0
		}
		diff := s.Mean() - Mean(clean)
		scale := 1.0 + math.Abs(Mean(clean))
		return math.Abs(diff)/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(clean, p1) <= Percentile(clean, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
