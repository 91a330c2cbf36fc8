package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"pmutrust/internal/pmu"
	"pmutrust/internal/report"
	"pmutrust/internal/workloads"
)

// Inputs are the per-experiment parameters cmd/pmubench takes as flags.
// The zero value runs every experiment at its defaults, except "mux" and
// "spec", which need Events and Spec.
type Inputs struct {
	// Events, Timeslice and Policy configure "mux" (-events, -timeslice,
	// -mux-policy; see RunMuxCustom).
	Events    []pmu.Event
	Timeslice uint64
	Policy    pmu.MuxPolicy
	// Tenants and SwitchCost configure "tenants" and "tenants-timeslice"
	// (-tenants, -switch-cost; see RunTenants).
	Tenants    []int
	SwitchCost uint64
	// Spec is the phased spec file "spec" measures (-spec).
	Spec string
}

// Output is one experiment's result: the rendered table plus the
// per-cell results of a grid experiment, at most one kind of which is
// set. The JSON tags are those of pmubench's -json document.
type Output struct {
	Table              *report.Table       `json:"-"`
	Measurements       []Measurement       `json:"measurements,omitempty"`
	MuxMeasurements    []MuxMeasurement    `json:"mux_measurements,omitempty"`
	TenantMeasurements []TenantMeasurement `json:"tenant_measurements,omitempty"`
}

// Experiment is one entry of the experiment table.
type Experiment struct {
	Name string
	// InAll reports whether "-experiment all" runs it. "mux" and "spec"
	// mean nothing without their Inputs, so "all" skips them.
	InAll bool
	// Rows, set for an accuracy matrix a sweep can shard, returns its
	// workload rows; GridByName crosses them with every machine and
	// method.
	Rows func() []workloads.Spec
	// Run runs the experiment. Its Output is meaningful only when the
	// error is nil.
	Run func(*Runner, Inputs) (Output, error)
}

// Registry returns the experiment table: every experiment of the paper
// (Tables 1–3, the improvement factors, the §5.2 side experiments) and
// of the repository (the ablations, mux, tenants and phased tables), in
// the order "-experiment all" runs them — table3 first: it is analytic,
// so a broken build fails before any sweep starts. It is the only list
// of experiment names. The table1, table2 and factors entries of one
// returned table share a memo, so running all three on one Runner
// measures each matrix once.
func Registry() []Experiment {
	t1, t2 := memo((*Runner).RunTable1), memo((*Runner).RunTable2)
	return []Experiment{
		{Name: "table3", InAll: true, Run: func(*Runner, Inputs) (Output, error) {
			return Output{Table: RunTable3()}, nil
		}},
		{Name: "table1", InAll: true, Rows: table1Matrix.rows, Run: matrix(t1)},
		{Name: "table2", InAll: true, Rows: table2Matrix.rows, Run: matrix(t2)},
		{Name: "factors", InAll: true, Run: func(r *Runner, _ Inputs) (Output, error) {
			a, err := t1(r)
			if err != nil {
				return Output{}, err
			}
			b, err := t2(r)
			if err != nil {
				return Output{}, err
			}
			return Output{Table: r.RunFactors(a, b).Table}, nil
		}},
		{Name: "ipfix", InAll: true, Run: series((*Runner).RunIPFix)},
		{Name: "ranking", InAll: true, Run: series((*Runner).RunRanking)},
		{Name: "ablate-skid", InAll: true, Run: series((*Runner).AblateSkid)},
		{Name: "ablate-period", InAll: true, Run: series((*Runner).AblatePeriod)},
		{Name: "ablate-lbr", InAll: true, Run: series((*Runner).AblateLBRDepth)},
		{Name: "ablate-burst", InAll: true, Run: series((*Runner).AblateBurst)},
		{Name: "ablate-rand", InAll: true, Run: series((*Runner).AblateRandAmp)},
		{Name: "overhead", InAll: true, Run: series((*Runner).RunOverhead)},
		{Name: "freq", InAll: true, Run: series((*Runner).RunFreqVsFixed)},
		{Name: "lbr-contention", InAll: true, Run: series((*Runner).RunLBRContention)},
		{Name: "stability", InAll: true, Run: series((*Runner).RunStability)},
		{Name: "future-hw", InAll: true, Run: series((*Runner).RunFutureHW)},
		{Name: "mux-events", InAll: true, Run: muxes((*Runner).RunMuxEvents)},
		{Name: "mux-timeslice", InAll: true, Run: muxes((*Runner).RunMuxTimeslice)},
		{Name: "mux-policy", InAll: true, Run: muxes((*Runner).RunMuxPolicy)},
		{Name: "mux", Run: func(r *Runner, in Inputs) (Output, error) {
			if len(in.Events) == 0 {
				return Output{}, errors.New("-experiment mux needs -events (e.g. -events inst_retired,load,br_taken)")
			}
			t, ms, err := r.RunMuxCustom(in.Events, in.Timeslice, in.Policy)
			return Output{Table: t, MuxMeasurements: ms}, err
		}},
		{Name: "tenants", InAll: true, Run: func(r *Runner, in Inputs) (Output, error) {
			t, ms, err := r.RunTenants(in.Tenants, in.SwitchCost)
			return Output{Table: t, TenantMeasurements: ms}, err
		}},
		{Name: "tenants-timeslice", InAll: true, Run: func(r *Runner, in Inputs) (Output, error) {
			t, ms, err := r.RunTenantsTimeslice(in.SwitchCost)
			return Output{Table: t, TenantMeasurements: ms}, err
		}},
		{Name: "phased", InAll: true, Rows: phasedMatrix.rows, Run: matrix((*Runner).RunPhased)},
		{Name: "spec", Run: func(r *Runner, in Inputs) (Output, error) {
			if in.Spec == "" {
				return Output{}, errors.New("-experiment spec needs -spec FILE")
			}
			s, err := workloads.LoadPhasedSpec(in.Spec)
			if err != nil {
				return Output{}, err
			}
			ws, err := s.WorkloadSpec()
			if err != nil {
				return Output{}, err
			}
			return matrixOutput(r.RunWorkloads(
				fmt.Sprintf("Spec %s (%s): sampling-method accuracy errors (lower is better)", s.Name, s.Fingerprint()),
				[]workloads.Spec{ws}))
		}},
	}
}

// Select returns the entries "-experiment name" runs: for "all" every
// InAll entry in table order, else the entry of that name. The entries
// come from one Registry call, so they share its memo. An unknown name's
// error lists every valid one, so a typo answers itself.
func Select(name string) ([]Experiment, error) {
	var sel []Experiment
	var names []string
	for _, e := range Registry() {
		if e.Name == name || (name == "all" && e.InAll) {
			sel = append(sel, e)
		}
		names = append(names, e.Name)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(names, ", "))
	}
	return sel, nil
}

// memo wraps a matrix run so each Runner measures it once: Tables 1 and
// 2 feed both their own entries and factors.
func memo(run func(*Runner) (*TableResult, error)) func(*Runner) (*TableResult, error) {
	var mu sync.Mutex
	done := map[*Runner]*TableResult{}
	return func(r *Runner) (*TableResult, error) {
		mu.Lock()
		defer mu.Unlock()
		if tr, ok := done[r]; ok {
			return tr, nil
		}
		tr, err := run(r)
		if err == nil {
			done[r] = tr
		}
		return tr, err
	}
}

// The adapters below turn each Run* signature into an entry's Run.

// matrixOutput is the Output of an accuracy matrix.
func matrixOutput(tr *TableResult, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	return Output{Table: tr.Table, Measurements: tr.Measurements}, nil
}

func matrix(run func(*Runner) (*TableResult, error)) func(*Runner, Inputs) (Output, error) {
	return func(r *Runner, _ Inputs) (Output, error) { return matrixOutput(run(r)) }
}

// series adapts the ablations and side experiments, whose raw results
// only tests read.
func series[X any](run func(*Runner) (*report.Table, X, error)) func(*Runner, Inputs) (Output, error) {
	return func(r *Runner, _ Inputs) (Output, error) {
		t, _, err := run(r)
		return Output{Table: t}, err
	}
}

func muxes(run func(*Runner) (*report.Table, []MuxMeasurement, error)) func(*Runner, Inputs) (Output, error) {
	return func(r *Runner, _ Inputs) (Output, error) {
		t, ms, err := run(r)
		return Output{Table: t, MuxMeasurements: ms}, err
	}
}
