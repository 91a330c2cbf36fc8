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
	"errors"
	"fmt"
	"time"

	"pmutrust/internal/analysis"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/stats"
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

// tenantIdentity is the results-store identity of a scheduling cell: the
// standard cell identity with the synthetic tenant key on the method
// axis.
func (r *Runner) tenantIdentity(spec workloads.Spec, mach machine.Machine, key string) results.Identity {
	return results.Identity{
		Workload:      spec.Name,
		Machine:       mach.Name,
		Method:        key,
		Scale:         r.Scale.Name,
		WorkloadScale: r.Scale.Workload,
		PeriodBase:    r.Scale.PeriodBase,
		Seed:          r.Seed,
		Repeats:       r.Scale.Repeats,
	}
}

// measureTenantsOnce runs one scheduled collection — n tenants all
// executing the workload (homogeneous tenancy, the self-interference
// worst case) — and returns the measured tenant's accuracy error, sample
// count and noise stats. The seed is the plain cell repeat seed: with
// n = 1 the scheduler delegates to sampling.Collect and the result is
// bit-identical to MeasureOnce's.
func (r *Runner) measureTenantsOnce(spec workloads.Spec, mach machine.Machine, m sampling.Method,
	n int, timeslice, switchCost uint64, seed uint64) (float64, int, *sampling.SchedStats, error) {

	p := r.Workload(spec)
	reference, err := r.Reference(spec)
	if err != nil {
		return 0, 0, nil, err
	}
	progs := make([]*program.Program, n)
	for i := range progs {
		progs[i] = p
	}
	runs, err := sched.Collect(progs, mach, m, sched.Options{
		Options: sampling.Options{
			PeriodBase:            r.Scale.PeriodBase,
			Seed:                  seed,
			Engine:                r.Engine,
			SchedTimesliceCycles:  timeslice,
			SchedSwitchCostCycles: switchCost,
			Telemetry:             r.Telemetry,
		},
	})
	if err != nil {
		return 0, 0, nil, err
	}
	run := runs[0]
	var bp *profile.BlockProfile
	if run.Method.UseLBRStack {
		bp, _, err = lbr.BuildProfile(p, run)
		if err != nil {
			return 0, 0, nil, err
		}
	} else {
		bp = profile.FromSamples(p, run)
	}
	e, err := analysis.AccuracyError(bp, reference)
	if err != nil {
		return 0, 0, nil, err
	}
	return e, len(run.Samples), run.Sched, nil
}

// MeasureTenants measures one scheduling cell over the configured
// repeats, mirroring Measure's aggregation conventions (derived repeat
// seeds, -1 for unsupported/dead cells, joined per-repeat failures).
func (r *Runner) MeasureTenants(spec workloads.Spec, mach machine.Machine, m sampling.Method,
	n int, timeslice, switchCost uint64) (TenantMeasurement, error) {

	timeslice, key := tenantCellKey(n, timeslice, m.Key)
	meas := TenantMeasurement{
		Workload: spec.Name,
		Machine:  mach.Name,
		Method:   m.Key,
		Key:      key,
		Tenants:  n,
	}
	if _, ok := sampling.Resolve(m, mach); !ok {
		meas.Err = -1
		return meas, nil
	}
	meas.Supported = true
	if r.Telemetry != nil {
		start := time.Now()
		defer func() { r.Telemetry.ObserveCellWall(time.Since(start)) }()
	}
	var errs []float64
	var failures []error
	for rep := 0; rep < r.Scale.Repeats; rep++ {
		e, cnt, sst, err := r.measureTenantsOnce(spec, mach, m, n, timeslice, switchCost,
			r.repeatSeed(spec, mach, m, rep))
		if err != nil {
			failures = append(failures, fmt.Errorf("repeat %d: %w", rep, err))
			continue
		}
		if len(errs) == 0 {
			meas.Samples = cnt
			meas.Sched = sst
		}
		errs = append(errs, e)
	}
	meas.PerRepeat = errs
	meas.Failed = len(failures) > 0
	if len(errs) > 0 {
		meas.Err = stats.Mean(errs)
	} else {
		meas.Err = -1
	}
	return meas, errors.Join(failures...)
}

// measureTenantCell is the store-aware wrapper around MeasureTenants:
// cached cells are served from the Runner's store (summary only), new
// ones are appended — the same incremental-sweep contract as
// measureMuxCell. Like SweepCached, it counts every dispatched cell as
// measured, a failed one included, in both StoreStats and the telemetry
// sink; only successful measurements are stored, so a resume retries the
// failed ones.
func (r *Runner) measureTenantCell(spec workloads.Spec, mach machine.Machine, m sampling.Method,
	n int, timeslice, switchCost uint64) (TenantMeasurement, error) {

	_, key := tenantCellKey(n, timeslice, m.Key)
	if r.Store != nil {
		if rec, ok := r.Store.Get(r.tenantIdentity(spec, mach, key).Key()); ok {
			r.mu.Lock()
			r.storeStats.Cached++
			r.mu.Unlock()
			r.Telemetry.CountCells(0, 1)
			return TenantMeasurement{
				Workload: rec.Workload, Machine: rec.Machine,
				Method: m.Key, Key: rec.Method, Tenants: n,
				Err: rec.Err, Samples: rec.Samples,
				Supported: rec.Supported, Failed: rec.Failed,
			}, nil
		}
	}
	meas, err := r.MeasureTenants(spec, mach, m, n, timeslice, switchCost)
	r.mu.Lock()
	r.storeStats.Measured++
	r.mu.Unlock()
	r.Telemetry.CountCells(1, 0)
	if err != nil {
		return meas, err
	}
	if r.Store != nil {
		id := r.tenantIdentity(spec, mach, key)
		rec := results.Record{
			Key:       id.Key(),
			Identity:  id,
			Err:       meas.Err,
			PerRepeat: meas.PerRepeat,
			Samples:   meas.Samples,
			Supported: meas.Supported,
			Failed:    meas.Failed,
		}
		if perr := r.Store.Put(rec); perr != nil {
			return meas, perr
		}
	}
	return meas, nil
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
	specs := tenantWorkloads()
	machines := machine.All()
	methods := tenantMethods()
	perRow := len(cols)
	rows := len(specs) * len(machines) * len(methods)
	out := make([]TenantMeasurement, rows*perRow)

	err := r.forEach(len(out), r.opts(), func(i int) error {
		row, ci := splitIdx(i, perRow)
		rest, di := splitIdx(row, len(methods))
		si, mi := splitIdx(rest, len(machines))
		col := cols[ci]
		meas, err := r.measureTenantCell(specs[si], machines[mi], methods[di],
			col.Tenants, col.Timeslice, switchCost)
		out[i] = meas
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", specs[si].Name, machines[mi].Name, meas.Key, err)
		}
		return nil
	})
	if err != nil {
		return nil, out, err
	}

	headers := []string{"workload", "machine", "method"}
	for _, c := range cols {
		headers = append(headers, c.Label)
	}
	t := report.New(title, headers...)
	for si, spec := range specs {
		for mi, mach := range machines {
			for di, m := range methods {
				row := []string{spec.Name, mach.Name, m.Key}
				base := flatIdx(flatIdx(flatIdx(si, mi, len(machines)), di, len(methods)), 0, perRow)
				for ci := range cols {
					row = append(row, report.Fmt(out[base+ci].Err))
				}
				t.AddRow(row...)
			}
		}
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
