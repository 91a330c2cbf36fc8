package experiments

// The phased/bursty workload family: the spec-generated (and hand-built)
// phased workloads measured through the same (workload, machine, method)
// matrix as the paper tables. Where Tables 1 and 2 ask "how accurate is
// each sampling method on steady workloads", this family asks the same
// question on workloads whose event mixes shift or burst over time —
// the regime where period-fraction attribution and enabled/running
// scaling are least trustworthy.

import (
	"fmt"

	"pmutrust/internal/workloads"
)

// phasedMatrix is the phased table: the registered phased family
// (workloads.PhasedFamily: the hand-built PhaseShift plus the built-in
// generated specs) across all machines and sampling methods.
var phasedMatrix = accuracyMatrix{
	title: "Table 9: sampling-method accuracy errors on phased/bursty workloads (lower is better)",
	note:  "Phased family: PhaseShift (hand-built) + spec-generated alternate/burst/ramp schedules (docs/WORKLOADS.md); no paper counterpart — extends the accuracy matrix to non-stationary mixes.",
	rows:  workloads.PhasedFamily,
}

// RunPhased measures the phased table. Store-aware like every matrix:
// with a results store attached, measured cells persist and reruns
// resume.
func (r *Runner) RunPhased() (*TableResult, error) { return r.runMatrix(phasedMatrix) }

// RunWorkloads measures an ad-hoc workload list through the standard
// matrix — the backend of `pmubench -spec`, which turns a user's spec
// file into a Spec and gets the full per-machine, per-method accuracy
// row for it, store-aware like the built-in tables.
func (r *Runner) RunWorkloads(title string, specs []workloads.Spec) (*TableResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: no workloads to measure")
	}
	return r.runMatrix(accuracyMatrix{title: title, rows: func() []workloads.Spec { return specs }})
}
