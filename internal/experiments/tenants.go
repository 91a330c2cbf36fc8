package experiments

// The multi-tenant scheduling experiment family: how much accuracy does
// each sampling method lose when the machine is time-shared? The
// scheduler (internal/sched) runs N copies of the workload on one
// simulated core with per-task PMU save/restore; tenant 0 is the
// measured process and the others are interference. The simulator holds
// per-tenant ground truth — the same workload's exact reference profile
// — so the degradation is measured directly, per mechanism: kernel
// switch-path leakage, lost in-kernel samples, cross-tenant skid
// (foreign samples), against tenant count and scheduler timeslice. The
// single-tenant column is collected by the unscheduled sampling path and
// is bit-identical to the plain accuracy tables' cells: the zero-noise
// anchor.

import (
	"fmt"
	"slices"

	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/workloads"
)

// DefaultTenantCounts is the tenant-count sweep of the scheduling-noise
// table: exclusive, and 2/4/8-way time sharing.
func DefaultTenantCounts() []int { return []int{1, 2, 4, 8} }

// TenantKey returns the synthetic method key a scheduling cell is stored
// under, e.g. "tn-n04-ts16000-classic". Zero padding keeps the keys
// lexically self-sorting like MuxKey's.
func TenantKey(n int, timeslice uint64, method string) string {
	return fmt.Sprintf("tn-n%02d-ts%05d-%s", n, timeslice, method)
}

// TenantMeasurement is one scheduling cell: the accuracy of one sampling
// method for the measured tenant under one (tenant count, timeslice)
// scheduling regime.
type TenantMeasurement struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// Method is the sampling method key; Key is the synthetic store key
	// (TenantKey) carrying the scheduling regime.
	Method  string `json:"method"`
	Key     string `json:"key"`
	Tenants int    `json:"tenants"`
	// Err is the measured tenant's accuracy error averaged over
	// successful repeats; -1 when unsupported or all repeats failed.
	Err       float64   `json:"err"`
	PerRepeat []float64 `json:"per_repeat,omitempty"`
	// Samples is the measured tenant's sample count of the first repeat.
	Samples int `json:"samples"`
	// Sched is the measured tenant's noise accounting from the first
	// repeat; nil for single-tenant cells (no scheduling) and for cells
	// served from a results store, which persists only the summary.
	Sched     *sampling.SchedStats `json:"sched,omitempty"`
	Supported bool                 `json:"supported"`
	Failed    bool                 `json:"failed,omitempty"`
}

// tenantCellKey resolves the timeslice default and derives the cell's
// synthetic key — shared by measurement and store lookup like muxCellKey.
func tenantCellKey(n int, timeslice uint64, method string) (uint64, string) {
	if timeslice == 0 {
		timeslice = sched.DefaultPeriodCycles
	}
	return timeslice, TenantKey(n, timeslice, method)
}

// MeasureTenants measures one scheduling cell over the configured
// repeats through Measure's body (derived repeat seeds, -1 for
// unsupported/dead cells, joined per-repeat failures), one repeat per
// sched.Collect. With n = 1 the scheduler delegates to sampling.Collect,
// so the result equals Measure's bit for bit.
func (r *Runner) MeasureTenants(spec workloads.Spec, mach machine.Machine, m sampling.Method,
	n int, timeslice, switchCost uint64) (TenantMeasurement, error) {

	timeslice, key := tenantCellKey(n, timeslice, m.Key)
	ms, scheds, errs := r.measure(spec, mach, []sampling.Method{m}, 1, func(p *program.Program, batch []member) ([]*sampling.Run, error) {
		opt := r.collectOptions(batch[0].seed)
		opt.SchedTimesliceCycles, opt.SchedSwitchCostCycles = timeslice, switchCost
		runs, err := sched.Collect(slices.Repeat([]*program.Program{p}, n), mach, m, sched.Options{Options: opt})
		if err != nil {
			return nil, err
		}
		return runs[:1], nil // the measured tenant's run
	})
	meas := ms[0]
	return TenantMeasurement{
		Workload: spec.Name, Machine: mach.Name, Method: m.Key, Key: key, Tenants: n,
		Err: meas.Err, PerRepeat: meas.PerRepeat, Samples: meas.Samples, Sched: scheds[0],
		Supported: meas.Supported, Failed: meas.Failed,
	}, errs[0]
}

// tenantCell is one tenant grid cell on the cell path. Its identity
// carries the tenant count and timeslice (TenantKey) but not the switch
// cost, so only default-cost cells may be stored: tenantMatrix sends the
// others through the path with no store.
type tenantCell struct {
	spec       workloads.Spec
	mach       machine.Machine
	method     sampling.Method
	n          int
	timeslice  uint64
	switchCost uint64
}

func (c tenantCell) coords() (string, string, string) {
	_, key := tenantCellKey(c.n, c.timeslice, c.method.Key)
	return c.spec.Name, c.mach.Name, key
}

func (tenantCell) joins(tenantCell) bool { return false }

func (c tenantCell) measure(r *Runner, _ []tenantCell) ([]TenantMeasurement, []error) {
	return alone(r.MeasureTenants(c.spec, c.mach, c.method, c.n, c.timeslice, c.switchCost))
}

func (tenantCell) record(m TenantMeasurement) results.Record {
	return results.Record{Err: m.Err, PerRepeat: m.PerRepeat, Samples: m.Samples,
		Supported: m.Supported, Failed: m.Failed}
}

// served restores the summary a record keeps; Sched and PerRepeat stay
// empty.
func (c tenantCell) served(rec results.Record) TenantMeasurement {
	return TenantMeasurement{
		Workload: rec.Workload, Machine: rec.Machine, Method: c.method.Key, Key: rec.Method, Tenants: c.n,
		Err: rec.Err, Samples: rec.Samples, Supported: rec.Supported, Failed: rec.Failed,
	}
}

// tenantWorkloads returns the workload rows of the scheduling tables: one
// latency-heavy and one branchy paper kernel, enough to show the noise
// mechanisms without squaring the grid.
func tenantWorkloads() []workloads.Spec {
	var specs []workloads.Spec
	for _, name := range []string{"LatencyBiased", "G4Box"} {
		s, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// tenantMethods returns one representative per capture mechanism:
// imprecise interrupt sampling, PEBS, the distribution-guaranteed PDIR
// with the IP fix, and the LBR profile — the mechanisms the scheduler's
// drain model treats differently.
func tenantMethods() []sampling.Method {
	var out []sampling.Method
	for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// tenantColumn is one column of a scheduling table: a (tenant count,
// timeslice) regime.
type tenantColumn struct {
	Label     string
	Tenants   int
	Timeslice uint64
}

// tenantMatrix measures a (workload × machine × method × column) grid on
// the worker pool and renders one row per workload × machine × method,
// one column per scheduling regime. The cell text is the measured
// tenant's accuracy error.
func (r *Runner) tenantMatrix(title string, cols []tenantColumn, switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	var cells []tenantCell
	for _, spec := range tenantWorkloads() {
		for _, mach := range machine.All() {
			for _, m := range tenantMethods() {
				for _, col := range cols {
					cells = append(cells, tenantCell{spec, mach, m, col.Tenants, col.Timeslice, switchCost})
				}
			}
		}
	}
	st := r.Store
	if switchCost != 0 {
		st = nil // not in the identity: a stored cell would be stale
	}
	out, _, err := runCells[TenantMeasurement](r, st, r.opts(), cells)
	if err != nil {
		return nil, out, err
	}

	headers := []string{"workload", "machine", "method"}
	for _, c := range cols {
		headers = append(headers, c.Label)
	}
	t := report.New(title, headers...)
	for i := 0; i < len(out); i += len(cols) {
		row := []string{out[i].Workload, out[i].Machine, out[i].Method}
		for _, m := range out[i : i+len(cols)] {
			row = append(row, report.Fmt(m.Err))
		}
		t.AddRow(row...)
	}
	return t, out, nil
}

// RunTenants measures per-method accuracy degradation against the tenant
// count at the default scheduler period — the "scheduling noise" table.
// The n=1 column is collected unscheduled and matches the plain accuracy
// tables bit for bit. A nil counts slice selects DefaultTenantCounts; a
// zero switchCost uses each machine's CtxSwitchCostCycles.
func (r *Runner) RunTenants(counts []int, switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	if len(counts) == 0 {
		counts = DefaultTenantCounts()
	}
	var cols []tenantColumn
	for _, n := range counts {
		if n < 1 {
			return nil, nil, fmt.Errorf("experiments: tenant count %d < 1", n)
		}
		cols = append(cols, tenantColumn{Label: fmt.Sprintf("n=%d", n), Tenants: n})
	}
	t, ms, err := r.tenantMatrix(
		"Scheduling noise: accuracy error vs tenant count (lower is better)",
		cols, switchCost)
	if err == nil {
		t.Note = fmt.Sprintf(
			"CFS-style slices of %d/n cycles: the switch rate grows with the tenant count. "+
				"Each switch drains in-flight captures (foreign samples for the successor) and leaks "+
				"kernel switch-path events into the restored counters; n=1 is the unscheduled baseline.",
			uint64(sched.DefaultPeriodCycles))
	}
	return t, ms, err
}

// RunTenantsTimeslice measures accuracy degradation against the scheduler
// period at a fixed four-way tenancy: shorter slices mean more switches,
// more drained captures and more kernel leakage per retired instruction.
func (r *Runner) RunTenantsTimeslice(switchCost uint64) (*report.Table, []TenantMeasurement, error) {
	var cols []tenantColumn
	for _, ts := range []uint64{4000, 16000, 64000} {
		cols = append(cols, tenantColumn{
			Label:     fmt.Sprintf("ts=%d", ts),
			Tenants:   4,
			Timeslice: ts,
		})
	}
	t, ms, err := r.tenantMatrix(
		"Scheduling noise: accuracy error vs scheduler period, 4 tenants (lower is better)",
		cols, switchCost)
	if err == nil {
		t.Note = "Four tenants sharing one core; each runs period/4 cycles per slice. " +
			"PDIR never holds pending capture state, so it is immune to the cross-tenant skid drain " +
			"and degrades only through kernel leakage."
	}
	return t, ms, err
}
