package experiments

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// OverheadPoint is one period setting of the error/overhead tradeoff.
type OverheadPoint struct {
	Period   uint64
	Err      float64
	Overhead float64
}

// RunOverhead (A6) sweeps the sampling period for the best plain-EBS
// method and the LBR method on an application workload, reporting both the
// accuracy error and the estimated collection overhead. This quantifies
// Table 3's LBR drawback — "overhead (in collection and post-processing)"
// — as a measurable error-vs-cost frontier.
func (r *Runner) RunOverhead() (*report.Table, map[string][]OverheadPoint, error) {
	spec, err := workloads.ByName("omnetpp")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()

	t := report.New("A6: accuracy vs collection overhead (omnetpp, IvyBridge)",
		"base period", "hw period", "pdir+ipfix err", "pdir+ipfix ovh", "lbr err", "lbr ovh")
	series := map[string][]OverheadPoint{}

	// Simulator periods map to hardware deployment periods by the scaling
	// factor of DESIGN.md §2: the paper's 2,000,000-instruction period
	// corresponds to the harness default of 4,000.
	const hwScale = 2_000_000 / 4_000

	bases := []uint64{500, 1000, 2000, 4000, 8000}
	keys := []string{"pdir+ipfix", "lbr"}
	// Job index interleaves (base, method), method innermost.
	points := make([]OverheadPoint, 2*len(bases))
	err = r.forEach(len(points), r.opts(), func(i int) error {
		bi, ki := splitIdx(i, len(keys))
		base := bases[bi]
		m, err := sampling.MethodByKey(keys[ki])
		if err != nil {
			return err
		}
		e, run, _, err := r.score(spec, func(p *program.Program) (*sampling.Run, error) {
			opt := r.collectOptions(r.Seed)
			opt.PeriodBase = base
			return sampling.Collect(p, mach, m, opt)
		})
		if err != nil {
			return err
		}
		points[i] = OverheadPoint{Period: base, Err: e, Overhead: run.OverheadAtHWPeriod(base * hwScale)}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, base := range bases {
		row := []string{fmt.Sprintf("%d", base), fmt.Sprintf("%d", base*hwScale)}
		for j, key := range keys {
			pt := points[flatIdx(i, j, len(keys))]
			series[key] = append(series[key], pt)
			row = append(row, report.Fmt(pt.Err), fmt.Sprintf("%.3f%%", 100*pt.Overhead))
		}
		t.AddRow(row...)
	}
	t.Note = "Overhead model: PMI cost + LBR MSR reads per sample ([38]) at the hardware-equivalent period; shorter periods buy accuracy with growing cost."
	return t, series, nil
}
