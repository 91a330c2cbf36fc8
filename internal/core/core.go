// Package core composes the sampling, profiling and analysis machinery
// into the paper's end product: a trust assessment for PMU-based profiles
// of a given workload on a given machine, with a method recommendation
// following §6.3 ("sample on a modern platform with support for precise
// distributed events, while using a prime period ... for ultimate sampling
// performance ... employ LBR-based methods").
//
// Assess answers the practical question the paper leaves its readers with:
// "on this machine, for this workload, which sampling setup should I trust,
// and how much error am I carrying if I stay with the defaults?"
package core

import (
	"fmt"
	"strings"

	"pmutrust/internal/analysis"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
)

// Options controls an assessment.
type Options struct {
	// PeriodBase is the base sampling period in instructions.
	PeriodBase uint64
	// Seed seeds randomized methods; repeats use Seed, Seed+1, ...
	Seed uint64
	// Repeats averages each method over this many runs (default 3).
	Repeats int
}

// MethodResult is one evaluated method.
type MethodResult struct {
	// Method is the registry method (pre-lowering).
	Method sampling.Method
	// Resolved is the method after lowering onto the machine.
	Resolved sampling.Method
	// Supported reports whether the machine can run the method at all.
	Supported bool
	// Err is the measured accuracy error (mean over repeats).
	Err float64
	// Samples is the sample count of the last repeat.
	Samples int
}

// Assessment is the outcome of evaluating the full method registry.
type Assessment struct {
	// Workload names the assessed program.
	Workload string
	// Machine is the platform assessed.
	Machine machine.Machine
	// Results holds one entry per registry method, in registry order.
	Results []MethodResult
	// Best is the supported method with the lowest error.
	Best MethodResult
	// DefaultPenalty is err(classic)/err(best): how much accuracy a user
	// of the default tool setup leaves on the table.
	DefaultPenalty float64
	// Recommendation is the §6.3-style narrative, grounded in the
	// measurements above.
	Recommendation string
}

// Assess evaluates every registry method for p on mach.
func Assess(p *program.Program, mach machine.Machine, opt Options) (*Assessment, error) {
	if opt.PeriodBase == 0 {
		return nil, fmt.Errorf("core: zero period base")
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 3
	}
	reference, err := ref.Collect(p)
	if err != nil {
		return nil, fmt.Errorf("core: reference: %w", err)
	}

	a := &Assessment{Workload: p.Name, Machine: mach}
	var classicErr float64
	for _, m := range sampling.Registry() {
		mr := MethodResult{Method: m}
		resolved, ok := sampling.Resolve(m, mach)
		if !ok {
			mr.Err = -1
			a.Results = append(a.Results, mr)
			continue
		}
		mr.Supported = true
		mr.Resolved = resolved
		var errs []float64
		for rep := 0; rep < opt.Repeats; rep++ {
			run, err := sampling.Collect(p, mach, m, sampling.Options{
				PeriodBase: opt.PeriodBase,
				Seed:       opt.Seed + uint64(rep),
			})
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", m.Key, err)
			}
			bp, _, err := lbr.Profile(p, run)
			if err != nil {
				return nil, err
			}
			e, err := analysis.AccuracyError(bp, reference)
			if err != nil {
				return nil, err
			}
			errs = append(errs, e)
			mr.Samples = len(run.Samples)
		}
		mr.Err = stats.Mean(errs)
		if m.Key == "classic" {
			classicErr = mr.Err
		}
		if !a.Best.Supported || mr.Err < a.Best.Err {
			a.Best = mr
		}
		a.Results = append(a.Results, mr)
	}
	if a.Best.Supported && a.Best.Err > 0 {
		a.DefaultPenalty = classicErr / a.Best.Err
	}
	a.Recommendation = recommend(a)
	return a, nil
}

// recommend turns the measurements into the paper's §6.3 advice, phrased
// for the specific machine and backed by the measured numbers.
func recommend(a *Assessment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "On %s, the most trustworthy method for %s is %q (error %.4f).",
		a.Machine.Name, a.Workload, a.Best.Method.Key, a.Best.Err)
	if a.DefaultPenalty > 1.2 {
		fmt.Fprintf(&b, " The default tool setup (classic sampling) carries %.1fx that error.",
			a.DefaultPenalty)
	}
	switch {
	case a.Machine.HasPDIR:
		b.WriteString(" This platform has precisely distributed events (PDIR):" +
			" prefer INST_RETIRED.PREC_DIST with a prime period, and use" +
			" LBR-based block counts when the post-processing cost is acceptable (§6.3).")
	case a.Machine.HasLBR:
		b.WriteString(" No PDIR on this platform: PEBS precision is distribution-biased," +
			" so LBR-based methods are the main path to trustworthy block counts" +
			" (the paper notes LBR works especially well on Westmere, §7).")
	case a.Machine.HasIBS:
		b.WriteString(" This platform samples uops (IBS) rather than instructions and has" +
			" no LBR: expect a high error floor, keep prime periods, and avoid the" +
			" hardware period randomization, which worsens results (§5.1).")
	}
	return b.String()
}

// Table renders the assessment as rows of (method, error, samples), for
// CLI display.
func (a *Assessment) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trust assessment: %s on %s\n", a.Workload, a.Machine)
	for _, mr := range a.Results {
		marker := " "
		if mr.Supported && mr.Method.Key == a.Best.Method.Key {
			marker = "*"
		}
		if !mr.Supported {
			fmt.Fprintf(&b, "%s %-20s unsupported\n", marker, mr.Method.Key)
			continue
		}
		fmt.Fprintf(&b, "%s %-20s err %.4f  (%d samples, mechanism %s)\n",
			marker, mr.Method.Key, mr.Err, mr.Samples, mr.Resolved.Precision)
	}
	b.WriteString(a.Recommendation)
	b.WriteString("\n")
	return b.String()
}
