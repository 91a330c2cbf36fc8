// Package core turns the experiment harness's measurements into the
// paper's end product: a trust assessment for PMU-based profiles
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

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// Options controls an assessment.
type Options struct {
	// PeriodBase is the base sampling period in instructions.
	PeriodBase uint64
	// Seed is the base seed: repeat rep of a method draws the seed the
	// accuracy grids draw for that cell (experiments.Runner.RepeatSeed).
	Seed uint64
	// Repeats averages each method over this many runs (default 3).
	Repeats int
}

// Assessment is the outcome of evaluating the full method registry.
type Assessment struct {
	// Workload names the assessed program.
	Workload string
	// Machine is the platform assessed.
	Machine machine.Machine
	// Results holds one measurement per registry method, in registry
	// order.
	Results []experiments.Measurement
	// Best is the supported method with the lowest error.
	Best experiments.Measurement
	// DefaultPenalty is err(classic)/err(best): how much accuracy a user
	// of the default tool setup leaves on the table.
	DefaultPenalty float64
	// Recommendation is the §6.3-style narrative, grounded in the
	// measurements above.
	Recommendation string
}

// Assess evaluates every registry method for p on mach. It measures the
// one-row grid (p × mach × the registry) with experiments.Runner.Sweep,
// so each error is the one the accuracy tables print for that cell at
// the same scale, period, seed and repeats, and the methods share
// executions as the grids' do.
func Assess(p *program.Program, mach machine.Machine, opt Options) (*Assessment, error) {
	if opt.PeriodBase == 0 {
		return nil, fmt.Errorf("core: zero period base")
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 3
	}
	r := experiments.NewRunner(experiments.Scale{Workload: 1, PeriodBase: opt.PeriodBase, Repeats: opt.Repeats}, opt.Seed)
	// p is already built at its scale, so the spec ignores the Runner's.
	spec := workloads.Spec{Name: p.Name, Build: func(float64) *program.Program { return p }}
	ms, err := r.Sweep(experiments.Grid{
		Workloads: []workloads.Spec{spec},
		Machines:  []machine.Machine{mach},
		Methods:   sampling.Registry(),
	}, experiments.SweepOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	a := &Assessment{Workload: p.Name, Machine: mach, Results: ms}
	var classicErr float64
	for _, m := range ms {
		if !m.Supported {
			continue
		}
		if m.Method == "classic" {
			classicErr = m.Err
		}
		if !a.Best.Supported || m.Err < a.Best.Err {
			a.Best = m
		}
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
		a.Machine.Name, a.Workload, a.Best.Method, a.Best.Err)
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
	for _, m := range a.Results {
		marker := " "
		if m.Supported && m.Method == a.Best.Method {
			marker = "*"
		}
		if !m.Supported {
			fmt.Fprintf(&b, "%s %-20s unsupported\n", marker, m.Method)
			continue
		}
		// Results hold registry keys, and a supported one resolves on
		// a.Machine, so both lookups succeed.
		method, _ := sampling.MethodByKey(m.Method)
		resolved, _ := sampling.Resolve(method, a.Machine)
		fmt.Fprintf(&b, "%s %-20s err %.4f  (%d samples, mechanism %s)\n",
			marker, m.Method, m.Err, m.Samples, resolved.Precision)
	}
	b.WriteString(a.Recommendation)
	b.WriteString("\n")
	return b.String()
}
