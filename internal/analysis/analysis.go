// Package analysis scores estimated profiles against the reference, using
// the paper's accuracy-error metric (§3.3) and the derived comparisons the
// results sections report: improvement factors and top-N function-ranking
// agreement.
package analysis

import (
	"fmt"
	"math"

	"pmutrust/internal/profile"
	"pmutrust/internal/ref"
)

// AccuracyError computes the paper's metric:
//
//	Err(x) = Σ_bb |InstrCount_x[bb] − InstrCount_REF[bb]| / net_instruction_count
//
// 0 is perfect; 2 is the worst possible for a mass-preserving estimate
// (everything attributed to the wrong blocks counts twice).
func AccuracyError(est *profile.BlockProfile, reference *ref.Profile) (float64, error) {
	if est.Prog != reference.Prog {
		return 0, fmt.Errorf("analysis: profile and reference are for different programs")
	}
	if reference.NetInstructions == 0 {
		return 0, fmt.Errorf("analysis: reference has zero instructions")
	}
	sum := 0.0
	for b := range reference.InstrCount {
		sum += math.Abs(est.InstrEstimate[b] - float64(reference.InstrCount[b]))
	}
	return sum / float64(reference.NetInstructions), nil
}

// ImprovementFactor returns how many times smaller err is than base
// (base/err). Both must be collected against the same reference. A factor
// above 1 means err improves on base. Degenerate inputs (zero err) return
// +Inf, matching the intuitive reading "perfect".
func ImprovementFactor(base, err float64) float64 {
	if err == 0 {
		if base == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return base / err
}

// RankAgreement compares an estimated top-N function ranking with the
// reference ranking.
type RankAgreement struct {
	// N is the requested depth.
	N int
	// ExactOrder reports whether the top-N sequences are identical.
	ExactOrder bool
	// SetOverlap is |est∩ref| / N for the top-N sets.
	SetOverlap float64
	// KendallTau is the rank correlation over the union of both top-N
	// sets (1 = same order, −1 = reversed).
	KendallTau float64
}

// CompareRankings evaluates agreement between est's and ref's top-N
// function rankings. refRank and estRank are full rankings (function IDs
// in descending hotness).
func CompareRankings(estRank, refRank []int, n int) RankAgreement {
	if n > len(refRank) {
		n = len(refRank)
	}
	if n > len(estRank) {
		n = len(estRank)
	}
	ra := RankAgreement{N: n, ExactOrder: true}
	for i := 0; i < n; i++ {
		if estRank[i] != refRank[i] {
			ra.ExactOrder = false
			break
		}
	}
	if n == 0 {
		return ra
	}

	refTop := make(map[int]int, n) // id -> position
	for i := 0; i < n; i++ {
		refTop[refRank[i]] = i
	}
	overlap := 0
	estPos := make(map[int]int, n)
	for i := 0; i < n; i++ {
		estPos[estRank[i]] = i
		if _, ok := refTop[estRank[i]]; ok {
			overlap++
		}
	}
	ra.SetOverlap = float64(overlap) / float64(n)

	// Kendall tau over the IDs present in both top-N lists.
	var common []int
	for i := 0; i < n; i++ {
		if _, ok := estPos[refRank[i]]; ok {
			common = append(common, refRank[i])
		}
	}
	if len(common) < 2 {
		ra.KendallTau = 1
		return ra
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			a, b := common[i], common[j]
			// ref order: a before b (by construction of common).
			if estPos[a] < estPos[b] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	ra.KendallTau = float64(concordant-discordant) / float64(concordant+discordant)
	return ra
}

// RefFunctionRanking converts a reference profile to a function ranking
// comparable with profile.FunctionProfile.Ranking.
func RefFunctionRanking(r *ref.Profile) []int {
	fp := &profile.FunctionProfile{
		Prog:          r.Prog,
		InstrEstimate: make([]float64, r.Prog.NumFuncs()),
	}
	for b, ic := range r.InstrCount {
		fp.InstrEstimate[r.Prog.Blocks[b].Func] += float64(ic)
	}
	return fp.Ranking()
}
