package experiments

import (
	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// FreqResult pairs fixed-period and frequency-mode errors per workload.
type FreqResult struct {
	// FixedErr and FreqErr are keyed by workload name.
	FixedErr, FreqErr map[string]float64
}

// RunFreqVsFixed (A7) contrasts perf's default frequency mode (period
// feedback targeting constant time between samples) with a fixed round
// period, on the kernels. Frequency mode makes sampling time-uniform —
// the resulting profile weights blocks by cycles rather than instruction
// counts, so workloads with CPI asymmetry (LatencyBiased) suffer most.
func (r *Runner) RunFreqVsFixed() (*report.Table, *FreqResult, error) {
	mach := machine.IvyBridge()
	fixed, err := sampling.MethodByKey("classic")
	if err != nil {
		return nil, nil, err
	}
	freq := sampling.FreqMode()

	t := report.New("A7: fixed-period classic vs perf frequency mode (IvyBridge)",
		"workload", "fixed err", "freq err")
	res := &FreqResult{
		FixedErr: make(map[string]float64),
		FreqErr:  make(map[string]float64),
	}
	kernels := workloads.Kernels()
	// The (kernel, fixed|freq) matrix is a one-machine grid; Sweep's
	// canonical order puts methods innermost, matching the fold below.
	ms, err := r.Sweep(Grid{
		Workloads: kernels,
		Machines:  []machine.Machine{mach},
		Methods:   []sampling.Method{fixed, freq},
	}, r.opts())
	if err != nil {
		return nil, nil, err
	}
	for i, spec := range kernels {
		mf, mq := ms[flatIdx(i, 0, 2)], ms[flatIdx(i, 1, 2)]
		res.FixedErr[spec.Name] = mf.Err
		res.FreqErr[spec.Name] = mq.Err
		t.AddRow(spec.Name, report.Fmt(mf.Err), report.Fmt(mq.Err))
	}
	t.Note = "Frequency mode trades period-choice pitfalls (resonance) for time-uniform sampling; neither approaches the precise/LBR methods."
	return t, res, nil
}
