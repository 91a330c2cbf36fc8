package experiments

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// RunLBRContention (A8) degrades the LBR method by sharing the facility
// with a call-stack-mode consumer (perf --call-graph lbr running
// concurrently), sweeping the collision fraction. §6.2 argues for an IP+1
// fix in hardware precisely to free the LBR from such collisions; this
// experiment quantifies what the collision costs.
func (r *Runner) RunLBRContention() (*report.Table, []SweepPoint, error) {
	spec, err := workloads.ByName("G4Box")
	if err != nil {
		return nil, nil, err
	}
	mach := machine.IvyBridge()
	m, err := sampling.MethodByKey("lbr")
	if err != nil {
		return nil, nil, err
	}

	t := report.New("A8: LBR-method error vs call-stack-mode contention (G4Box, IvyBridge)",
		"contention", "error", "malformed segments")
	contentions := []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0}
	series := make([]SweepPoint, len(contentions))
	malformed := make([]int, len(contentions))
	err = r.forEach(len(contentions), r.opts(), func(i int) error {
		e, _, ds, err := r.score(spec, func(p *program.Program) (*sampling.Run, error) {
			opt := r.collectOptions(r.Seed)
			opt.LBRContention = contentions[i]
			return sampling.Collect(p, mach, m, opt)
		})
		series[i] = SweepPoint{X: contentions[i], Err: e}
		malformed[i] = ds.Malformed
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for i, pt := range series {
		t.AddRow(fmt.Sprintf("%.0f%%", 100*pt.X), report.Fmt(pt.Err), fmt.Sprintf("%d", malformed[i]))
	}
	t.Note = "Collisions replace taken-branch windows with call-stack-filtered ones; §6.2 proposes a hardware IP+1 fix to avoid sharing the LBR at all."
	return t, series, nil
}
