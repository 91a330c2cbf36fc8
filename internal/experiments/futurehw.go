package experiments

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// FutureHWResult compares Ivy Bridge (software LBR-top IP fix) with the
// hypothetical FutureGen machine implementing §6.2's hardware exact-IP
// recommendation, with and without a competing LBR consumer.
type FutureHWResult struct {
	// IvyClean/FutureClean map workload → error with exclusive LBR.
	IvyClean, FutureClean map[string]float64
	// IvyContended/FutureContended are the same under 50% call-stack-mode
	// LBR contention.
	IvyContended, FutureContended map[string]float64
}

// RunFutureHW (A9) quantifies the paper's §6.2 hardware recommendation:
// an exact-IP precise record needs no LBR read for the IP+1 fix, so it is
// immune to LBR collisions with call-stack profiling — and saves the MSR
// reads. Errors are measured for the pdir+ipfix method on both machines,
// clean and under 50% LBR contention.
func (r *Runner) RunFutureHW() (*report.Table, *FutureHWResult, error) {
	m, err := sampling.MethodByKey("pdir+ipfix")
	if err != nil {
		return nil, nil, err
	}
	machines := []machine.Machine{machine.IvyBridge(), machine.FutureGen()}

	t := report.New("A9: §6.2 hardware IP-fix (FutureGen) vs software LBR fix (IvyBridge), pdir+ipfix",
		"workload", "IVB err", "FutureGen err", "IVB err @50% LBR contention", "FutureGen err @50%")
	res := &FutureHWResult{
		IvyClean: map[string]float64{}, FutureClean: map[string]float64{},
		IvyContended: map[string]float64{}, FutureContended: map[string]float64{},
	}

	measure := func(spec workloads.Spec, mach machine.Machine, contention float64) (float64, error) {
		e, _, _, err := r.score(spec, func(p *program.Program) (*sampling.Run, error) {
			opt := r.collectOptions(r.Seed)
			opt.LBRContention = contention
			return sampling.Collect(p, mach, m, opt)
		})
		return e, err
	}

	kernels := workloads.Kernels()
	contentions := []float64{0, 0.5}
	// Job index interleaves (kernel, contention, machine), machine
	// innermost: i = flatIdx(kernel, flatIdx(contention, machine, M), C*M).
	perKernel := len(contentions) * len(machines)
	errs := make([]float64, len(kernels)*perKernel)
	err = r.forEach(len(errs), r.opts(), func(i int) error {
		ki, rest := splitIdx(i, perKernel)
		ci, mi := splitIdx(rest, len(machines))
		e, err := measure(kernels[ki], machines[mi], contentions[ci])
		errs[i] = e
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for k, spec := range kernels {
		// Dispatch on machine name and contention value, not slice
		// position, so reordering machines cannot swap result columns.
		for ci, contention := range contentions {
			for mi, mach := range machines {
				e := errs[flatIdx(k, flatIdx(ci, mi, len(machines)), perKernel)]
				switch {
				case contention == 0 && mach.Name == "IvyBridge":
					res.IvyClean[spec.Name] = e
				case contention == 0:
					res.FutureClean[spec.Name] = e
				case mach.Name == "IvyBridge":
					res.IvyContended[spec.Name] = e
				default:
					res.FutureContended[spec.Name] = e
				}
			}
		}
		t.AddRow(spec.Name,
			report.Fmt(res.IvyClean[spec.Name]), report.Fmt(res.FutureClean[spec.Name]),
			report.Fmt(res.IvyContended[spec.Name]), report.Fmt(res.FutureContended[spec.Name]))
	}
	t.Note = fmt.Sprintf(
		"FutureGen implements §6.2: exact-IP precise records (no LBR read, no collision exposure). "+
			"Per-sample cost: IVB %d cycles (PMI+LBR top read) vs FutureGen %d (PMI only).",
		machine.IvyBridge().PMICostCycles+machine.IvyBridge().LBRReadCostCycles,
		machine.FutureGen().PMICostCycles)
	return t, res, nil
}
