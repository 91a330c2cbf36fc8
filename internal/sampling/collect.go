package sampling

import (
	"fmt"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/telemetry"
)

// EngineMode selects which execution engine Collect drives — or both, for
// self-checking runs. The engines are bit-identical (enforced by the
// differential harness), so the mode never changes results, only speed.
type EngineMode uint8

const (
	// EngineFast (the zero value, hence the default) runs the block-stride
	// fast-path executor.
	EngineFast EngineMode = iota
	// EngineInterp runs the per-instruction reference interpreter.
	EngineInterp
	// EngineBoth runs both engines and fails the collection with a
	// divergence error unless every observable — cpu.Result, sample
	// stream, LBR contents, overflow/drop counters, error text — is
	// bit-identical. Twice the cost; meant for CI smoke and debugging.
	EngineBoth
)

// String returns the flag spelling of the mode.
func (e EngineMode) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineInterp:
		return "interp"
	case EngineBoth:
		return "both"
	default:
		return "unknown"
	}
}

// EngineByName parses a -engine flag value.
func EngineByName(name string) (EngineMode, error) {
	switch name {
	case "fast":
		return EngineFast, nil
	case "interp":
		return EngineInterp, nil
	case "both":
		return EngineBoth, nil
	default:
		return EngineFast, fmt.Errorf("sampling: unknown engine %q (want fast, interp or both)", name)
	}
}

// Options controls one collection run.
type Options struct {
	// PeriodBase is the base sampling period in instructions; Table 3's
	// example is 2,000,000 on real hardware. The experiment harness scales
	// it down together with workload sizes (see internal/experiments).
	PeriodBase uint64
	// Seed seeds period randomization. Runs differing only in Seed model
	// the paper's repeated measurements.
	Seed uint64
	// MaxInstrs bounds the simulated run as a safety net (0 = default).
	// The bound is exact under both engines: a fast-path stride is capped
	// so it can never overshoot the limit.
	MaxInstrs uint64
	// LBRContention is the fraction of samples whose LBR snapshot is
	// stolen by a concurrent call-stack-mode consumer (§6.2's collision
	// concern). Zero for exclusive LBR ownership.
	LBRContention float64
	// Engine selects the execution engine (default EngineFast).
	Engine EngineMode
	// Events requests additional counting events alongside the sampling
	// method, perf-stat style. When the list exceeds the machine's
	// physical counter budget the virtualized PMU layer (pmu.Mux)
	// time-multiplexes the counters and Run.Counts carries both the exact
	// ground truth and the perf-style scaled estimate per event.
	Events []pmu.Event
	// MuxTimesliceCycles is the multiplexer's rotation timeslice in
	// simulated cycles (0 = pmu.DefaultMuxTimeslice). Ignored without
	// Events.
	MuxTimesliceCycles uint64
	// MuxPolicy selects the multiplexer's rotation policy (default
	// round-robin). Ignored without Events.
	MuxPolicy pmu.MuxPolicy
	// SchedTimesliceCycles is the scheduler period in simulated cycles:
	// each of the N tenants of a sched.Collect runs PeriodCycles/N per
	// round, CFS-style, so the context-switch rate grows with the tenant
	// count (0 = sched.DefaultPeriodCycles). Only sched.Collect reads it
	// (sampling stays import-free of sched).
	SchedTimesliceCycles uint64
	// SchedSwitchCostCycles overrides the machine's context-switch cost
	// (Machine.CtxSwitchCostCycles) for the scheduler's switch-in leak
	// model. Only sched.Collect reads it.
	SchedSwitchCostCycles uint64
	// Telemetry, when non-nil, receives each run's engine counters and
	// variant at run end. Telemetry observes, never perturbs: it is not
	// part of Run, so bit-identity checks (DiffRuns) never see it, and a
	// nil sink costs one branch per run.
	Telemetry *telemetry.Sink
}

// SchedStats reports the scheduling noise one tenant's run absorbed under
// the multi-tenant scheduler (internal/sched); nil Run.Sched means the
// run was collected single-tenant. Plain data so DiffRuns can compare it
// without importing sched.
type SchedStats struct {
	// Tenants is the tenant count of the collection; Tenant is this run's
	// index within it.
	Tenants int `json:"tenants"`
	Tenant  int `json:"tenant"`
	// Switches is the number of scheduler deadlines serviced (context
	// switches this tenant was descheduled at).
	Switches uint64 `json:"switches"`
	// DrainedInFlight counts preemptions that caught an in-flight capture
	// (pending PMI, armed PEBS window, displaced IBS tag): the tenant
	// lost the sample, and its successor received it as a foreign sample.
	DrainedInFlight uint64 `json:"drained_in_flight"`
	// ForeignSamples counts samples in this run's stream that belong to
	// the predecessor tenant (its drained in-flight captures delivered
	// after the switch, attributed here at this tenant's resume IP).
	ForeignSamples uint64 `json:"foreign_samples"`
	// KernelLeakInstrs is the total number of kernel switch-path
	// instructions that retired with this tenant's counters live.
	KernelLeakInstrs uint64 `json:"kernel_leak_instrs"`
	// KernelSamplesLost counts counter overflows that landed inside a
	// kernel leak window: the PMI sampled kernel code, invisible to a
	// user-space profile, so the sample is gone.
	KernelSamplesLost uint64 `json:"kernel_samples_lost"`
	// Migrations counts machine-model migrations applied to this tenant.
	Migrations uint64 `json:"migrations"`
}

// Run is the outcome of sampling one workload on one machine with one
// method.
type Run struct {
	// Machine is the platform the run executed on.
	Machine machine.Machine
	// Requested is the method as requested (registry form).
	Requested Method
	// Method is the method after lowering onto the machine.
	Method Method
	// Period is the effective programmed period in event units.
	Period uint64
	// Samples are the collected PMU samples.
	Samples []pmu.Sample
	// CPU is the hardware-truth run summary.
	CPU cpu.Result
	// Overflows and DroppedPMIs report collection health.
	Overflows, DroppedPMIs uint64
	// Counts holds the multiplexed counting results, in Options.Events
	// order; nil when no counting events were requested.
	Counts []pmu.MuxCount
	// MuxRotations is the number of counter rotations the multiplexer
	// serviced (0 when the request list fits the physical budget).
	MuxRotations uint64
	// Sched reports the scheduling noise absorbed under the multi-tenant
	// scheduler; nil for single-tenant collections.
	Sched *SchedStats
}

// SampleCostCycles returns the modelled cost of collecting one sample:
// one PMI (interrupt entry, handler, buffer write) plus, for
// LBR-capturing configurations, the MSR reads for the full stack. The
// constants live on the Machine and follow the Bitzes & Nowak overhead
// study [38] the paper cites for the "overhead (in collection and
// post-processing)" drawback of LBR methods (Table 3).
func (r *Run) SampleCostCycles() uint64 {
	perSample := r.Machine.PMICostCycles
	switch {
	case r.Method.UseLBRStack:
		// Full-stack methods read every LBR entry pair.
		perSample += uint64(r.Machine.LBRDepth) * r.Machine.LBRReadCostCycles
	case r.Method.Fix == FixLBRTop:
		// The IP+1 offset fix needs only the top entry (§6.2 suggests
		// hardware could provide it for free).
		perSample += r.Machine.LBRReadCostCycles
	}
	return perSample
}

// OverheadAtHWPeriod estimates collection overhead as a fraction of total
// runtime when sampling every hwPeriod instructions on real hardware:
// cost / (cost + inter-sample interval), with the interval derived from
// the run's measured cycles-per-instruction.
//
// The hardware period is a parameter because the simulator runs scaled-
// down workloads with proportionally scaled-down periods (DESIGN.md §2
// "Scaling"); overhead, unlike the accuracy error, does not survive that
// scaling and must be evaluated at the deployment period (the paper's
// 2,000,000, or ~1ms of instructions).
func (r *Run) OverheadAtHWPeriod(hwPeriod uint64) float64 {
	if r.CPU.Instructions == 0 || hwPeriod == 0 {
		return 0
	}
	cpi := float64(r.CPU.Cycles) / float64(r.CPU.Instructions)
	interval := float64(hwPeriod) * cpi
	cost := float64(r.SampleCostCycles())
	return cost / (cost + interval)
}

// ErrUnsupported is wrapped in errors returned when a machine cannot run a
// method (e.g. any LBR method on Magny-Cours).
type ErrUnsupported struct {
	Machine string
	Method  string
}

// Error implements error.
func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("sampling: machine %s does not support method %s", e.Machine, e.Method)
}

// Cell is the lowered per-run configuration Collect programs the PMU
// with: the resolved method, the effective period, the sampling-unit
// config and (when counting events are requested) the multiplexer config
// with the machine's physical counter budget split around the pinned
// sampling counter. It is exported so the multi-tenant scheduler
// (internal/sched) runs each tenant through the same lowering rules and
// run body, and so the experiments' ablations can hand-build a cell for
// CollectCell.
type Cell struct {
	// Requested is the method as requested (registry form).
	Requested Method
	// Resolved is the method after lowering onto the machine.
	Resolved Method
	// Period is the effective programmed period in event units.
	Period uint64
	// PMU programs the sampling unit.
	PMU pmu.Config
	// Mux programs the multiplexer; meaningful only when UseMux is set.
	Mux pmu.MuxConfig
	// UseMux reports whether counting events were requested.
	UseMux bool
}

// CounterBudget splits a machine's physical counters around the pinned
// sampling counter: classic imprecise inst_retired sampling rides the
// fixed counter where one exists (Table 3: "Uses a fixed-function counter
// to free up general counters"); precise mechanisms and other events pin
// a general counter. Shared by Collect's mux setup and the scheduler's
// migration mode, which must re-derive the budget on the target machine.
func CounterBudget(mach machine.Machine, resolved Method) (genFree int, fixedFree bool) {
	genFree = mach.NumGenCounters
	fixedFree = mach.HasFixedCounter
	if fixedFree && resolved.Event == pmu.EvInstRetired && resolved.Precision == pmu.Imprecise {
		fixedFree = false
	} else {
		genFree--
	}
	return genFree, fixedFree
}

// PrepareCell lowers (machine, method, options) to the per-run PMU and
// multiplexer configuration — the pure front half of Collect.
func PrepareCell(mach machine.Machine, m Method, opt Options) (Cell, error) {
	resolved, ok := Resolve(m, mach)
	if !ok {
		return Cell{}, &ErrUnsupported{Machine: mach.Name, Method: m.Key}
	}
	if opt.PeriodBase == 0 {
		return Cell{}, fmt.Errorf("sampling: zero period base")
	}
	period := EffectivePeriod(resolved, opt.PeriodBase)

	rand := pmu.RandNone
	if resolved.Randomize {
		switch {
		case resolved.Precision == pmu.PreciseIBS && mach.HasHW4LSBRandom:
			// The AMD driver cannot randomize in software; IBS hardware
			// randomizes the 4 LSBs instead (§4.2).
			rand = pmu.RandHW4LSB
		case mach.HasSWPeriodRandom:
			rand = pmu.RandSoftware
		}
	}

	cell := Cell{
		Requested: m,
		Resolved:  resolved,
		Period:    period,
		PMU: pmu.Config{
			Event:         resolved.Event,
			Precision:     resolved.Precision,
			Period:        period,
			Rand:          rand,
			SkidCycles:    mach.SkidCycles,
			CaptureLBR:    resolved.NeedsLBR(),
			LBRDepth:      mach.LBRDepth,
			Seed:          opt.Seed,
			FreqMode:      resolved.Adaptive,
			LBRContention: opt.LBRContention,
			HWExactIP:     mach.HasHWIPFix,
		},
	}
	if len(opt.Events) > 0 {
		genFree, fixedFree := CounterBudget(mach, resolved)
		cell.UseMux = true
		cell.Mux = pmu.MuxConfig{
			Events:           opt.Events,
			TimesliceCycles:  opt.MuxTimesliceCycles,
			Policy:           opt.MuxPolicy,
			GenCounters:      genFree,
			FixedCounterFree: fixedFree,
		}
	}
	return cell, nil
}

// Collect runs p on mach while sampling with method m.
func Collect(p *program.Program, mach machine.Machine, m Method, opt Options) (*Run, error) {
	cell, err := PrepareCell(mach, m, opt)
	if err != nil {
		return nil, err
	}
	return CollectCell(p, mach, cell, opt)
}

// CollectCell is Collect for an already lowered cell — one built by
// PrepareCell, or by hand to program the PMU outside the method registry
// (the experiments' ablations): the one-cell case of CollectCells.
func CollectCell(p *program.Program, mach machine.Machine, cell Cell, opt Options) (*Run, error) {
	var run [1]*Run // a single run needs no heap slice
	if err := collectInto(p, mach, []Cell{cell}, run[:], opt); err != nil {
		return nil, err
	}
	return run[0], nil
}

// CollectCells collects several lowered cells that share one execution
// of p through RunCells: each run equals its cell's own CollectCell run,
// since the broadcast is member-exact. On error it returns no runs.
func CollectCells(p *program.Program, mach machine.Machine, cells []Cell, opt Options) ([]*Run, error) {
	runs := make([]*Run, len(cells))
	if err := collectInto(p, mach, cells, runs, opt); err != nil {
		return nil, err
	}
	return runs, nil
}

// collectInto is the body of CollectCell and CollectCells: it collects
// cells into runs under opt's engine mode. opt supplies the engine mode,
// the instruction limit and the telemetry sink; the rest of it was
// lowered into the cells. Under EngineBoth the interpreter's reference
// runs go to a slice of their own, and every cell's outcome is diffed.
// The run body keeps failed runs for that self-check; the callers drop
// them.
func collectInto(p *program.Program, mach machine.Machine, cells []Cell, runs []*Run, opt Options) error {
	_, err := RunEngines(opt.Engine, func(eng cpu.Engine) ([]*Run, error) {
		if opt.Engine == EngineBoth && eng == cpu.EngineInterp {
			ref := make([]*Run, len(cells))
			return ref, RunCells(p, mach, cells, ref, opt, eng, nil)
		}
		return nil, RunCells(p, mach, cells, runs, opt, eng, nil)
	}, func(ref []*Run, refErr error, _ []*Run, gotErr error) error {
		for i := range cells {
			if err := DiffOutcome(ref[i], refErr, runs[i], gotErr); err != nil {
				return fmt.Errorf("engine divergence on %s/%s/%s: %w", p.Name, mach.Name, cells[i].Requested.Key, err)
			}
		}
		return nil
	})
	return err
}

// RunEngines runs one collection under an engine mode: run is called with
// the fast engine, the interpreter, or both. Under EngineBoth the
// interpreter's outcome is the reference — diff compares it with the fast
// engine's, and a non-nil result fails the call — and the fast outcome is
// returned. It is the one place an EngineMode chooses engines.
func RunEngines[T any](mode EngineMode, run func(cpu.Engine) (T, error),
	diff func(ref T, refErr error, got T, gotErr error) error) (T, error) {

	switch mode {
	case EngineInterp:
		return run(cpu.EngineInterp)
	case EngineBoth:
		ref, refErr := run(cpu.EngineInterp)
		got, gotErr := run(cpu.EngineFast)
		if err := diff(ref, refErr, got, gotErr); err != nil {
			var zero T
			return zero, err
		}
		return got, gotErr
	default:
		return run(cpu.EngineFast)
	}
}

// RunCells is the one run body of every collection: it executes p once
// on mach with engine eng and stores in runs[i] what cell i's chain
// observed — its PMU, behind a Mux when counting events were requested,
// wrapped in wrap's monitor when non-nil (the scheduler's per-tenant
// task). Several chains share the execution through a cpu.Broadcast, and
// their runs share the cpu.Result and the error. Only here do engine
// counters and variants reach opt.Telemetry, once per cell. The runs are
// stored even when the cpu run errored: the partial sample streams (and
// mux counts) are what EngineBoth diffs on identically failing runs.
func RunCells(p *program.Program, mach machine.Machine, cells []Cell, runs []*Run, opt Options, eng cpu.Engine,
	wrap func(i int, unit *pmu.PMU, mux *pmu.Mux, chain cpu.FastMonitor) cpu.FastMonitor) error {

	type chain struct {
		unit *pmu.PMU
		mux  *pmu.Mux
	}
	var one [1]chain // a single chain needs no heap slice
	chains := one[:]
	var members []cpu.FastMonitor
	if len(cells) > 1 {
		chains = make([]chain, len(cells))
		members = make([]cpu.FastMonitor, len(cells))
	}
	var mon cpu.FastMonitor // the last chain's monitor, then the broadcast
	for i := range cells {
		c, ch := &cells[i], &chains[i]
		ch.unit = pmu.New(c.PMU)
		mon = ch.unit
		if c.UseMux {
			ch.mux = pmu.NewMux(c.Mux, ch.unit)
			mon = ch.mux
		}
		if wrap != nil {
			mon = wrap(i, ch.unit, ch.mux, mon)
		}
		if members != nil {
			members[i] = mon
		}
	}
	if members != nil {
		mon = cpu.NewBroadcast(members)
	}
	cpuRes, err := cpu.RunEngine(p, mach.CPU, mon, opt.MaxInstrs, eng)
	if err != nil {
		err = fmt.Errorf("sampling: run %s on %s: %w", p.Name, mach.Name, err)
	}
	variant := telemetry.VariantFull // the stride loop serves every FastMonitor
	if eng == cpu.EngineInterp {
		variant = telemetry.VariantInterp
	}
	for i := range cells {
		c, ch := &cells[i], &chains[i]
		runs[i] = &Run{
			Machine:     mach,
			Requested:   c.Requested,
			Method:      c.Resolved,
			Period:      c.Period,
			Samples:     ch.unit.Samples(),
			CPU:         cpuRes,
			Overflows:   ch.unit.Overflows,
			DroppedPMIs: ch.unit.DroppedPMIs,
		}
		if ch.mux != nil {
			runs[i].Counts = ch.mux.Finish(cpuRes.Cycles)
			runs[i].MuxRotations = ch.mux.Rotations
		}
		opt.Telemetry.AddEngine(ch.unit.EngineCounters())
		opt.Telemetry.CountRun(variant)
	}
	return err
}

// DiffOutcome compares two engines' outcomes of the same cell: error
// parity and text first, then every Run observable via DiffRuns —
// including the partial streams of runs that ended in identical errors,
// so a divergence hiding behind a shared failure (e.g. an instruction
// limit) is still caught. Both runs must be non-nil; a is conventionally
// the reference engine's.
func DiffOutcome(a *Run, aErr error, b *Run, bErr error) error {
	switch {
	case (aErr == nil) != (bErr == nil):
		return fmt.Errorf("interp err=%v, fast err=%v", aErr, bErr)
	case aErr != nil && aErr.Error() != bErr.Error():
		return fmt.Errorf("interp error %q vs fast error %q", aErr.Error(), bErr.Error())
	}
	return DiffRuns(a, b)
}

// DiffRuns reports the first observable difference between two runs of the
// same cell, or nil when they are bit-identical. It is the shared
// divergence check behind EngineBoth, the differential tests and the CI
// both-engine smoke sweep.
func DiffRuns(a, b *Run) error {
	if a.CPU != b.CPU {
		return fmt.Errorf("cpu result diverges:\n  a %+v\n  b %+v", a.CPU, b.CPU)
	}
	if a.Period != b.Period {
		return fmt.Errorf("period diverges: %d vs %d", a.Period, b.Period)
	}
	if a.Overflows != b.Overflows || a.DroppedPMIs != b.DroppedPMIs {
		return fmt.Errorf("collection health diverges: overflows %d/%d, dropped %d/%d",
			a.Overflows, b.Overflows, a.DroppedPMIs, b.DroppedPMIs)
	}
	if a.MuxRotations != b.MuxRotations {
		return fmt.Errorf("mux rotations diverge: %d vs %d", a.MuxRotations, b.MuxRotations)
	}
	if (a.Sched == nil) != (b.Sched == nil) {
		return fmt.Errorf("sched stats presence diverges: %+v vs %+v", a.Sched, b.Sched)
	}
	if a.Sched != nil && *a.Sched != *b.Sched {
		return fmt.Errorf("sched stats diverge:\n  a %+v\n  b %+v", *a.Sched, *b.Sched)
	}
	if len(a.Counts) != len(b.Counts) {
		return fmt.Errorf("mux count-list length diverges: %d vs %d", len(a.Counts), len(b.Counts))
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return fmt.Errorf("mux count %d (%s) diverges:\n  a %+v\n  b %+v",
				i, a.Counts[i].Event, a.Counts[i], b.Counts[i])
		}
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Errorf("sample count diverges: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa.IP != sb.IP || sa.TriggerIP != sb.TriggerIP || sa.Cycle != sb.Cycle ||
			sa.Seq != sb.Seq || sa.Period != sb.Period {
			return fmt.Errorf("sample %d diverges:\n  a %+v\n  b %+v", i, sa, sb)
		}
		if (sa.LBR == nil) != (sb.LBR == nil) || len(sa.LBR) != len(sb.LBR) {
			return fmt.Errorf("sample %d LBR shape diverges: %v vs %v", i, sa.LBR, sb.LBR)
		}
		for j := range sa.LBR {
			if sa.LBR[j] != sb.LBR[j] {
				return fmt.Errorf("sample %d LBR[%d] diverges: %+v vs %+v", i, j, sa.LBR[j], sb.LBR[j])
			}
		}
	}
	return nil
}
