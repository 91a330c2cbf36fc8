package experiments

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// Ablations probe the design choices DESIGN.md §5 calls out. Each returns
// a rendered table plus the raw series so tests can assert monotonicity
// claims.

// SweepPoint is one (x, err) pair of an ablation sweep.
type SweepPoint struct {
	X   float64
	Err float64
}

// measureWith scores one custom-configured measurement: workload on
// machine with an explicitly built PMU config, bypassing the method
// registry. cfg is collected as a lowered cell whose method is m, so m
// also decides how the profile is estimated (LBR-stack decoding when
// m.UseLBRStack is set).
func (r *Runner) measureWith(spec workloads.Spec, mach machine.Machine, cfg pmu.Config, m sampling.Method) (float64, error) {
	cell := sampling.Cell{Requested: m, Resolved: m, Period: cfg.Period, PMU: cfg}
	e, _, _, err := r.score(spec, func(p *program.Program) (*sampling.Run, error) {
		return sampling.CollectCell(p, mach, cell, r.collectOptions(r.Seed))
	})
	return e, err
}

// AblateSkid (A1) sweeps the PMI delivery latency for classic sampling on
// the Latency-Biased kernel: the skid-as-delivery-time model predicts the
// error grows with skid until samples fully detach from their triggers.
func (r *Runner) AblateSkid() (*report.Table, []SweepPoint, error) {
	spec, err := workloads.ByName("LatencyBiased")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()
	classic, err := sampling.MethodByKey("classic")
	if err != nil {
		return nil, nil, err
	}
	t := report.New("A1: classic-sampling error vs PMI skid (LatencyBiased, IvyBridge core)",
		"skid (cycles)", "error")
	skids := []uint64{0, 5, 15, 30, 60, 120, 200}
	series := make([]SweepPoint, len(skids))
	err = r.forEach(len(skids), r.opts(), func(i int) error {
		cfg := pmu.Config{
			Event:      pmu.EvInstRetired,
			Precision:  pmu.Imprecise,
			Period:     r.Scale.PeriodBase,
			Rand:       pmu.RandSoftware, // isolate skid from resonance
			SkidCycles: skids[i],
			Seed:       r.Seed,
		}
		e, err := r.measureWith(spec, mach, cfg, classic)
		series[i] = SweepPoint{X: float64(skids[i]), Err: e}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, pt := range series {
		t.AddRow(fmt.Sprintf("%d", uint64(pt.X)), report.Fmt(pt.Err))
	}
	t.Note = "Skid reattaches samples to whatever stalls at PMI delivery; larger skid = stronger shadow bias."
	return t, series, nil
}

// AblatePeriod (A2) sweeps period size and primality for precise sampling
// on the CallChain kernel (iteration length 100): round periods that share
// a factor with the loop length resonate; primes do not.
func (r *Runner) AblatePeriod() (*report.Table, map[string][]SweepPoint, error) {
	spec, err := workloads.ByName("CallChain")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()
	precise, err := sampling.MethodByKey("precise")
	if err != nil {
		return nil, nil, err
	}
	t := report.New("A2: precise-sampling error vs period (CallChain, IvyBridge)",
		"base period", "round err", "prime err")
	bases := []uint64{500, 1000, 2000, 3000, 4000, 5000}
	// Job index interleaves (base, round|prime), primality innermost.
	errs := make([]float64, 2*len(bases))
	err = r.forEach(len(errs), r.opts(), func(i int) error {
		bi, pi := splitIdx(i, 2)
		base := bases[bi]
		period := base
		if pi == 1 {
			period = stats.NextPrime(base)
		}
		cfg := pmu.Config{
			Event:     pmu.EvInstRetired,
			Precision: pmu.PrecisePEBS,
			Period:    period,
			Rand:      pmu.RandNone,
			Seed:      r.Seed,
		}
		e, err := r.measureWith(spec, mach, cfg, precise)
		errs[i] = e
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	series := map[string][]SweepPoint{}
	for i, base := range bases {
		round, prime := errs[flatIdx(i, 0, 2)], errs[flatIdx(i, 1, 2)]
		series["round"] = append(series["round"], SweepPoint{X: float64(base), Err: round})
		series["prime"] = append(series["prime"], SweepPoint{X: float64(base), Err: prime})
		t.AddRow(fmt.Sprintf("%d", base), report.Fmt(round), report.Fmt(prime))
	}
	t.Note = "CallChain retires exactly 100 instructions per iteration; round periods divisible by common factors resonate."
	return t, series, nil
}

// AblateLBRDepth (A3) sweeps the LBR stack depth on G4Box: deeper stacks
// observe more segments per PMI, cutting estimator variance.
func (r *Runner) AblateLBRDepth() (*report.Table, []SweepPoint, error) {
	spec, err := workloads.ByName("G4Box")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()
	lbrM, err := sampling.MethodByKey("lbr")
	if err != nil {
		return nil, nil, err
	}
	t := report.New("A3: LBR-method error vs stack depth (G4Box, IvyBridge)",
		"LBR depth", "error")
	depths := []int{4, 8, 16, 32, 64}
	series := make([]SweepPoint, len(depths))
	err = r.forEach(len(depths), r.opts(), func(i int) error {
		cfg := pmu.Config{
			Event:      pmu.EvBrTaken,
			Precision:  pmu.Imprecise,
			Period:     sampling.EffectivePeriod(lbrM, r.Scale.PeriodBase),
			Rand:       pmu.RandNone,
			SkidCycles: mach.SkidCycles,
			CaptureLBR: true,
			LBRDepth:   depths[i],
			Seed:       r.Seed,
		}
		e, err := r.measureWith(spec, mach, cfg, lbrM)
		series[i] = SweepPoint{X: float64(depths[i]), Err: e}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, pt := range series {
		t.AddRow(fmt.Sprintf("%d", int(pt.X)), report.Fmt(pt.Err))
	}
	t.Note = "16 is the Westmere/Ivy Bridge hardware depth; 32 arrives with Skylake (the paper's 'valuable single resource', §6.2)."
	return t, series, nil
}

// AblateBurst (A4) sweeps the core retire width for PEBS vs PDIR on the
// Latency-Biased kernel: wider retirement means burstier streams, which
// hurts the armed PEBS capture but not PDIR — the root cause the paper
// conjectures for CallChain ("out-of-order clustering of uops ... retired
// in bursts", §5.1).
func (r *Runner) AblateBurst() (*report.Table, map[string][]SweepPoint, error) {
	spec, err := workloads.ByName("LatencyBiased")
	if err != nil {
		return nil, nil, err
	}
	t := report.New("A4: PEBS vs PDIR error vs retire width (LatencyBiased)",
		"retire width", "pebs err", "pdir err")
	m, err := sampling.MethodByKey("precise+prime+rand")
	if err != nil {
		return nil, nil, err
	}
	widths := []int{1, 2, 4, 6, 8}
	precisions := []pmu.Precision{pmu.PrecisePEBS, pmu.PreciseDist}
	// Job index interleaves (width, precision), precision innermost.
	errs := make([]float64, 2*len(widths))
	err = r.forEach(len(errs), r.opts(), func(i int) error {
		wi, pi := splitIdx(i, 2)
		mach := machine.IvyBridge()
		mach.CPU.RetireWidth = widths[wi]
		mach.CPU.DispatchWidth = widths[wi]
		cfg := pmu.Config{
			Event:     pmu.EvInstRetired,
			Precision: precisions[pi],
			Period:    stats.NextPrime(r.Scale.PeriodBase),
			Rand:      pmu.RandSoftware,
			Seed:      r.Seed,
		}
		e, err := r.measureWith(spec, mach, cfg, m)
		errs[i] = e
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	series := map[string][]SweepPoint{}
	for i, width := range widths {
		pebs, pdir := errs[flatIdx(i, 0, 2)], errs[flatIdx(i, 1, 2)]
		series[pmu.PrecisePEBS.String()] = append(series[pmu.PrecisePEBS.String()], SweepPoint{X: float64(width), Err: pebs})
		series[pmu.PreciseDist.String()] = append(series[pmu.PreciseDist.String()], SweepPoint{X: float64(width), Err: pdir})
		t.AddRow(fmt.Sprintf("%d", width), report.Fmt(pebs), report.Fmt(pdir))
	}
	t.Note = "PEBS cannot capture occurrences inside the arming burst; PDIR has no arming step."
	return t, series, nil
}

// AblateRandAmp (A5) sweeps the software randomization amplitude for
// precise sampling on CallChain: tiny amplitudes fail to break resonance,
// large ones are no better than moderate ones.
func (r *Runner) AblateRandAmp() (*report.Table, []SweepPoint, error) {
	spec, err := workloads.ByName("CallChain")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()
	m, err := sampling.MethodByKey("precise+rand")
	if err != nil {
		return nil, nil, err
	}
	t := report.New("A5: precise-sampling error vs randomization amplitude (CallChain, IvyBridge)",
		"amplitude (fraction of period)", "error")
	base := r.Scale.PeriodBase
	fracs := []float64{0, 0.001, 0.01, 0.05, 0.125, 0.25, 0.5}
	series := make([]SweepPoint, len(fracs))
	err = r.forEach(len(fracs), r.opts(), func(i int) error {
		frac := fracs[i]
		amp := uint64(float64(base) * frac)
		rand := pmu.RandSoftware
		if amp == 0 {
			rand = pmu.RandNone
			amp = 1
		}
		cfg := pmu.Config{
			Event:     pmu.EvInstRetired,
			Precision: pmu.PrecisePEBS,
			Period:    base,
			Rand:      rand,
			RandAmp:   amp,
			Seed:      r.Seed,
		}
		e, err := r.measureWith(spec, mach, cfg, m)
		series[i] = SweepPoint{X: frac, Err: e}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, pt := range series {
		t.AddRow(fmt.Sprintf("%.3f", pt.X), report.Fmt(pt.Err))
	}
	t.Note = "Resonance breaks once the jitter spans a few loop iterations; beyond that randomization buys nothing."
	return t, series, nil
}
