package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws of 100", same)
	}
}

func TestRNGReseed(t *testing.T) {
	r := NewRNG(7)
	first := r.Uint64()
	r.Seed(7)
	if got := r.Uint64(); got != first {
		t.Errorf("reseed did not reset the stream: %d != %d", got, first)
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRNG(99)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(5)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := draws / n
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d draws, want %d±10%%", b, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := NewRNG(3)
	sawLo, sawHi := false, false
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-2, 2)
		if v < -2 || v > 2 {
			t.Fatalf("IntRange(-2,2) = %d", v)
		}
		if v == -2 {
			sawLo = true
		}
		if v == 2 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Error("IntRange never hit an endpoint in 1000 draws")
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Errorf("IntRange(5,5) = %d", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestJitterZeroMeanAndBounds(t *testing.T) {
	r := NewRNG(21)
	const amp = 100
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		j := r.Jitter(amp)
		if j < -amp || j > amp {
			t.Fatalf("Jitter(%d) = %d out of range", amp, j)
		}
		sum += float64(j)
	}
	mean := sum / draws
	if math.Abs(mean) > 1.0 {
		t.Errorf("jitter mean %.3f not near zero", mean)
	}
	if NewRNG(1).Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
}

func TestZipfBasics(t *testing.T) {
	z := NewZipf(5, 1.2)
	if z.N() != 5 {
		t.Fatalf("N = %d", z.N())
	}
	if got := z.CDF(4); got != 1.0 {
		t.Errorf("CDF(last) = %v, want 1", got)
	}
	// The CDF's steps, the outcome probabilities, are positive and
	// decreasing: rank 0 is the most probable outcome.
	prev := math.Inf(1)
	for i := 0; i < 5; i++ {
		p := z.CDF(i)
		if i > 0 {
			p -= z.CDF(i - 1)
		}
		if p <= 0 || p > prev {
			t.Errorf("P(%d) = %v not positive-decreasing (prev %v)", i, p, prev)
		}
		prev = p
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, 0}, {5, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

// Property: Uint64n is always in range, for arbitrary seeds and moduli.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mul64 matches big-integer multiplication on the low 64 bits
// and produces hi=0 whenever the product fits.
func TestQuickMul64(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		if lo != x*y {
			return false
		}
		if x != 0 && y != 0 {
			fits := x <= math.MaxUint64/y
			return fits == (hi == 0)
		}
		return hi == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
