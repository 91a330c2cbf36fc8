package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
)

// fixedRef fabricates a reference profile over a 3-block program.
func fixedRef(t *testing.T) (*program.Program, *ref.Profile) {
	t.Helper()
	b := program.NewBuilder("p")
	f := b.Func("main")
	e := f.Block("a")
	e.Addi(1, 1, 1)
	e.Addi(1, 1, 1)
	mid := f.Block("b")
	mid.Addi(2, 2, 1)
	end := f.Block("c")
	end.Halt()
	p := b.MustBuild()

	r := &ref.Profile{
		Prog:            p,
		ExecCount:       []uint64{100, 100, 1},
		InstrCount:      []uint64{200, 100, 1},
		NetInstructions: 301,
	}
	return p, r
}

func TestAccuracyErrorZeroForExact(t *testing.T) {
	p, r := fixedRef(t)
	bp := profile.NewBlockProfile(p)
	for i, ic := range r.InstrCount {
		bp.InstrEstimate[i] = float64(ic)
	}
	e, err := AccuracyError(bp, r)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("exact profile error = %v", e)
	}
}

func TestAccuracyErrorKnownValue(t *testing.T) {
	p, r := fixedRef(t)
	bp := profile.NewBlockProfile(p)
	bp.InstrEstimate[0] = 100 // -100
	bp.InstrEstimate[1] = 200 // +100
	bp.InstrEstimate[2] = 1
	e, err := AccuracyError(bp, r)
	if err != nil {
		t.Fatal(err)
	}
	want := 200.0 / 301.0
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("error = %v, want %v", e, want)
	}
}

func TestAccuracyErrorMismatchedPrograms(t *testing.T) {
	p, r := fixedRef(t)
	_ = p
	q, _ := fixedRef(t)
	bp := profile.NewBlockProfile(q)
	if _, err := AccuracyError(bp, r); err == nil {
		t.Error("mismatched programs accepted")
	}
}

func TestAccuracyErrorZeroReference(t *testing.T) {
	p, r := fixedRef(t)
	r.NetInstructions = 0
	bp := profile.NewBlockProfile(p)
	if _, err := AccuracyError(bp, r); err == nil {
		t.Error("zero-instruction reference accepted")
	}
}

func TestImprovementFactor(t *testing.T) {
	if got := ImprovementFactor(0.4, 0.1); got != 4 {
		t.Errorf("factor = %v", got)
	}
	if got := ImprovementFactor(0.1, 0.4); got != 0.25 {
		t.Errorf("degradation factor = %v", got)
	}
	if !math.IsInf(ImprovementFactor(0.5, 0), 1) {
		t.Error("perfect estimate not +Inf")
	}
	if ImprovementFactor(0, 0) != 1 {
		t.Error("0/0 not 1")
	}
}

func TestCompareRankingsExact(t *testing.T) {
	ra := CompareRankings([]int{1, 2, 3, 4}, []int{1, 2, 3, 4}, 4)
	if !ra.ExactOrder || ra.SetOverlap != 1 || ra.KendallTau != 1 {
		t.Errorf("identical rankings: %+v", ra)
	}
}

func TestCompareRankingsReversed(t *testing.T) {
	ra := CompareRankings([]int{4, 3, 2, 1}, []int{1, 2, 3, 4}, 4)
	if ra.ExactOrder {
		t.Error("reversed marked exact")
	}
	if ra.SetOverlap != 1 {
		t.Errorf("overlap = %v", ra.SetOverlap)
	}
	if ra.KendallTau != -1 {
		t.Errorf("tau = %v", ra.KendallTau)
	}
}

func TestCompareRankingsPartialOverlap(t *testing.T) {
	ra := CompareRankings([]int{1, 2, 9, 8}, []int{1, 2, 3, 4}, 4)
	if ra.ExactOrder {
		t.Error("partial marked exact")
	}
	if ra.SetOverlap != 0.5 {
		t.Errorf("overlap = %v", ra.SetOverlap)
	}
	if ra.KendallTau != 1 {
		t.Errorf("tau over common prefix = %v", ra.KendallTau)
	}
}

func TestCompareRankingsTruncation(t *testing.T) {
	// n larger than the rankings clamps.
	ra := CompareRankings([]int{1, 2}, []int{1, 2}, 10)
	if ra.N != 2 || !ra.ExactOrder {
		t.Errorf("clamped comparison: %+v", ra)
	}
	ra = CompareRankings(nil, nil, 5)
	if ra.N != 0 {
		t.Errorf("empty comparison: %+v", ra)
	}
}

func TestRefFunctionRanking(t *testing.T) {
	p, r := fixedRef(t)
	_ = p
	rank := RefFunctionRanking(r)
	if len(rank) != 1 || rank[0] != 0 {
		t.Errorf("single-function ranking = %v", rank)
	}
}

// Property: AccuracyError is non-negative and zero only for exact
// estimates (over non-negative estimates).
func TestQuickAccuracyErrorProperties(t *testing.T) {
	p, r := fixedRef(t)
	f := func(a, b, c uint16) bool {
		bp := profile.NewBlockProfile(p)
		bp.InstrEstimate[0] = float64(a)
		bp.InstrEstimate[1] = float64(b)
		bp.InstrEstimate[2] = float64(c)
		e, err := AccuracyError(bp, r)
		if err != nil || e < 0 {
			return false
		}
		exact := uint64(a) == r.InstrCount[0] && uint64(b) == r.InstrCount[1] && uint64(c) == r.InstrCount[2]
		return (e == 0) == exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the error metric satisfies the triangle-style monotonicity of
// scaling — doubling all deviations doubles the error.
func TestQuickAccuracyErrorLinearity(t *testing.T) {
	p, r := fixedRef(t)
	f := func(a, b, c int16) bool {
		bp1 := profile.NewBlockProfile(p)
		bp2 := profile.NewBlockProfile(p)
		devs := []float64{float64(a), float64(b), float64(c)}
		for i, ic := range r.InstrCount {
			bp1.InstrEstimate[i] = float64(ic) + devs[i]
			bp2.InstrEstimate[i] = float64(ic) + 2*devs[i]
		}
		e1, err1 := AccuracyError(bp1, r)
		e2, err2 := AccuracyError(bp2, r)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(e2-2*e1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
