// Package sched is the multi-tenant OS layer of the simulator: a
// timeslice scheduler that runs N simulated programs ("tenants") on one
// simulated core, with per-task PMU context save/restore layered on the
// virtualized counters of internal/pmu.
//
// The paper's trust argument assumes a mostly quiet machine; real perf
// deployments time-share the PMU across processes. The scheduler models
// the noise sources that sharing adds, each at its mechanistic cause:
//
//   - Context-switch counter leakage: perf restores a task's counters on
//     switch-in before the kernel switch path finishes retiring, so a
//     stretch of kernel instructions leaks into every tenant's counts
//     (PMU.InjectKernelEvents / Mux.InjectKernel). Overflows landing in
//     the kernel window sample kernel code and are lost to a user-space
//     profile.
//   - Cross-tenant skid: a preemption that catches an in-flight capture
//     (a PMI riding out its skid, an armed PEBS window, a displaced IBS
//     tag) drains it — the interrupt fires after the switch, against the
//     successor tenant, which receives a foreign sample attributed at its
//     resume IP. PDIR is immune: it never holds pending capture state.
//   - Migration: a tenant may be rotated across machine models at switch
//     points, repointing its PMI skid and re-placing its multiplexed
//     events on the target's counter budget (execution timing stays on
//     the home machine — a documented approximation).
//
// Each tenant executes on its own local clock; the round-robin global
// schedule enters only through the deterministic cross-tenant coupling
// (foreign-sample delivery). Scheduler deadlines are fast-path fallback
// points exactly like mux rotation deadlines — serviced at the first
// retirement whose cycle reaches them, before that retirement is counted
// — so every tenant run is bit-identical across the interpreter and
// every fast-engine variant.
//
// Import boundaries: sched sits above cpu, pmu, machine and sampling,
// and below experiments — it must never import internal/experiments.
package sched

import (
	"fmt"
	"strconv"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
)

// DefaultPeriodCycles is the scheduler period in simulated cycles when
// Options.SchedTimesliceCycles is zero: each of N tenants runs
// PeriodCycles/N per round, CFS-style, so the context-switch rate grows
// with the tenant count while the period stays fixed — the behavior of a
// loaded CFS runqueue. Like pmu.DefaultMuxTimeslice it is scaled down
// with the workloads (a real sched_latency_ns of ~6ms is millions of
// cycles).
const DefaultPeriodCycles = 16000

// kernelInstrsPerSwitchCycle converts a context-switch cycle cost into
// leaked kernel instructions: the switch tail retires roughly one
// instruction per 8 cycles (cache-cold, serializing kernel code).
const kernelInstrsPerSwitchCycle = 8

// Options extends sampling.Options with the scheduler-only knobs.
type Options struct {
	sampling.Options
	// Migrate, when non-empty, rotates each tenant across these machine
	// models round-robin at every context switch: the PMI skid is
	// repointed and multiplexed events are re-placed on the target's
	// counter budget. Execution timing stays on the home machine.
	Migrate []machine.Machine
}

// mark records where a tenant resumed after one of its context switches:
// the first retirement of the new timeslice. Foreign samples from the
// predecessor tenant are attributed here.
type mark struct {
	IP    uint32
	Cycle uint64
	Seq   uint64
}

// task wraps a tenant's monitor chain (PMU, optionally behind a Mux) and
// services scheduler deadlines on its local clock. It implements
// cpu.FastMonitor with the same deadline pattern as pmu.Mux: deadlines
// are serviced at the first retirement whose cycle reaches them, before
// that retirement is counted; FastHeadroom hands the deadline to the
// engine's stride-loop fence and refuses once the horizon reaches it.
type task struct {
	unit *pmu.PMU
	mux  *pmu.Mux        // nil without counting events
	mon  cpu.FastMonitor // mux when present, else unit

	slice        uint64
	kernelLeak   uint64 // leaked kernel instructions per switch-in
	nextDeadline uint64

	migrate  []machine.Machine
	resolved sampling.Method
	migIdx   int

	marks  []mark
	drains []bool // drains[k]: service k caught an in-flight capture
	stats  sampling.SchedStats

	// tele is the tenant's telemetry counter block — the unit's own, so
	// the whole chain (task → mux → PMU) records into one block.
	tele *telemetry.EngineCounters
}

// service handles one scheduler deadline at retirement ev: the tenant is
// switched out and back in (its intervening descheduled time does not
// advance its local clock — tenants run on local clocks, see the package
// comment). Order matters and is part of the bit-identical contract:
// drain in-flight captures, leak the switch-in kernel window, apply any
// migration, then mark the resume point.
func (t *task) service(ev cpu.RetireEvent) {
	drained := t.unit.Preempt()
	t.drains = append(t.drains, drained)
	if drained {
		t.stats.DrainedInFlight++
	}

	drops := t.unit.InjectKernelEvents(t.kernelLeak)
	t.stats.KernelLeakInstrs += t.kernelLeak
	t.stats.KernelSamplesLost += drops
	if t.mux != nil {
		t.mux.InjectKernel(t.kernelLeak)
	}

	if len(t.migrate) > 0 {
		tgt := t.migrate[t.migIdx%len(t.migrate)]
		t.migIdx++
		t.unit.SetSkidCycles(tgt.SkidCycles)
		if t.mux != nil {
			gen, fixed := sampling.CounterBudget(tgt, t.resolved)
			t.mux.Repartition(gen, fixed, ev.Cycle)
		}
		t.stats.Migrations++
	}

	t.marks = append(t.marks, mark{IP: ev.Idx, Cycle: ev.Cycle, Seq: ev.Seq})
	t.stats.Switches++
	t.nextDeadline = ev.Cycle + t.slice
}

// OnRetire implements cpu.Monitor: service a due deadline before the
// retirement is counted, then forward down the monitor chain.
func (t *task) OnRetire(ev cpu.RetireEvent) {
	if ev.Cycle >= t.nextDeadline {
		t.service(ev)
	}
	t.mon.OnRetire(ev)
}

// FastHeadroom implements cpu.FastMonitor: the wrapped chain's grant,
// and the lesser of its deadline and the scheduler deadline. A horizon
// at or past the deadline is refused before consulting the wrapped
// chain, so exactly one layer attributes each fallback event (headroom
// queries are pure modulo telemetry); when the chain is the refuser it
// has already counted its reason.
func (t *task) FastHeadroom(horizon uint64) (uint64, uint64) {
	if horizon >= t.nextDeadline {
		t.tele.Fallbacks[telemetry.FallbackSchedDeadline]++
		return 0, t.nextDeadline
	}
	g, d := t.mon.FastHeadroom(horizon)
	return g, min(d, t.nextDeadline)
}

// WantBranches implements cpu.FastMonitor by delegation.
func (t *task) WantBranches() bool { return t.mon.WantBranches() }

// OnFastBranch implements cpu.FastMonitor by delegation.
func (t *task) OnFastBranch(from, to uint32, op isa.Op) {
	t.mon.OnFastBranch(from, to, op)
}

// BulkRetire implements cpu.FastMonitor by delegation: the engine's
// fence guarantees no deadline lies inside the stride.
func (t *task) BulkRetire(c cpu.BulkCounts) { t.mon.BulkRetire(c) }

var _ cpu.FastMonitor = (*task)(nil)

// TenantSeed derives tenant t's period-randomization seed from the cell
// seed. Tenant 0 uses the cell seed unchanged — with one tenant and no
// migration the whole collection is bit-identical to sampling.Collect,
// the zero-noise baseline the experiment tables anchor on.
func TenantSeed(base uint64, t int) uint64 {
	if t == 0 {
		return base
	}
	return stats.DeriveSeed(base, "tenant", strconv.Itoa(t))
}

// Collect runs the tenant programs under the timeslice scheduler on mach,
// all sampled with method m, and returns one Run per tenant in program
// order. Each Run carries its scheduling-noise accounting in Run.Sched.
//
// With a single tenant and no migration the scheduler is pure overhead,
// so Collect delegates to sampling.Collect — the returned Run (nil
// Sched) is bit-identical to an unscheduled collection.
func Collect(progs []*program.Program, mach machine.Machine, m sampling.Method, opt Options) ([]*sampling.Run, error) {
	n := len(progs)
	if n == 0 {
		return nil, fmt.Errorf("sched: no tenant programs")
	}
	if opt.Tenants != 0 && opt.Tenants != n {
		return nil, fmt.Errorf("sched: Options.Tenants = %d but %d programs", opt.Tenants, n)
	}
	if n == 1 && len(opt.Migrate) == 0 {
		o := opt.Options
		o.Tenants = 0
		run, err := sampling.Collect(progs[0], mach, m, o)
		if err != nil {
			return nil, err
		}
		return []*sampling.Run{run}, nil
	}

	period := opt.SchedTimesliceCycles
	if period == 0 {
		period = DefaultPeriodCycles
	}
	slice := period / uint64(n)
	if slice == 0 {
		return nil, fmt.Errorf("sched: period %d cycles too short for %d tenants", period, n)
	}
	switchCost := opt.SchedSwitchCostCycles
	if switchCost == 0 {
		switchCost = mach.CtxSwitchCostCycles
	}
	kernelLeak := switchCost / kernelInstrsPerSwitchCycle

	runAll := func(eng cpu.Engine) ([]*sampling.Run, []*task, []error) {
		runs := make([]*sampling.Run, n)
		tasks := make([]*task, n)
		errs := make([]error, n)
		for i, p := range progs {
			runs[i], tasks[i], errs[i] = runTenant(p, mach, m, opt, i, slice, kernelLeak, eng)
			if runs[i] == nil {
				// Cell lowering failed (unsupported method, bad period):
				// identical for every tenant and engine, so fail fast.
				return runs, tasks, errs
			}
		}
		mergeForeign(runs, tasks)
		return runs, tasks, errs
	}

	finish := func(runs []*sampling.Run, errs []error) ([]*sampling.Run, error) {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return runs, nil
	}

	switch opt.Engine {
	case sampling.EngineInterp:
		runs, _, errs := runAll(cpu.EngineInterp)
		return finish(runs, errs)
	case sampling.EngineBoth:
		ir, _, ierrs := runAll(cpu.EngineInterp)
		fr, _, ferrs := runAll(cpu.EngineFast)
		for i := range progs {
			if ir[i] == nil || fr[i] == nil {
				// Lowering errors carry no engine-dependent state.
				break
			}
			if err := sampling.DiffOutcome(ir[i], ierrs[i], fr[i], ferrs[i]); err != nil {
				return nil, fmt.Errorf("engine divergence on tenant %d %s/%s/%s: %w",
					i, progs[i].Name, mach.Name, m.Key, err)
			}
		}
		return finish(fr, ferrs)
	default:
		runs, _, errs := runAll(cpu.EngineFast)
		return finish(runs, errs)
	}
}

// runTenant executes one tenant under the scheduler. Like
// sampling.Collect's inner run, it returns the Run even when the cpu run
// errored, so EngineBoth can diff identically failing runs; a nil Run
// means cell lowering failed before execution.
func runTenant(p *program.Program, mach machine.Machine, m sampling.Method, opt Options,
	tenant int, slice, kernelLeak uint64, eng cpu.Engine) (*sampling.Run, *task, error) {

	topt := opt.Options
	topt.Seed = TenantSeed(opt.Seed, tenant)
	cell, err := sampling.PrepareCell(mach, m, topt)
	if err != nil {
		return nil, nil, err
	}

	unit := pmu.New(cell.PMU)
	tk := &task{
		unit:         unit,
		mon:          unit,
		slice:        slice,
		kernelLeak:   kernelLeak,
		nextDeadline: slice,
		migrate:      opt.Migrate,
		resolved:     cell.Resolved,
		tele:         unit.EngineCounters(),
	}
	if cell.UseMux {
		tk.mux = pmu.NewMux(cell.Mux, unit)
		tk.mon = tk.mux
	}

	cpuRes, err := cpu.RunEngine(p, mach.CPU, tk, topt.MaxInstrs, eng)
	if sink := topt.Telemetry; sink != nil {
		sink.AddEngine(unit.EngineCounters())
		if eng == cpu.EngineInterp {
			sink.CountRun(telemetry.VariantInterp)
		} else {
			sink.CountRun(cpu.FastVariant(tk))
		}
	}
	run := &sampling.Run{
		Machine:     mach,
		Requested:   m,
		Method:      cell.Resolved,
		Period:      cell.Period,
		Samples:     unit.Samples(),
		CPU:         cpuRes,
		Overflows:   unit.Overflows,
		DroppedPMIs: unit.DroppedPMIs,
	}
	if tk.mux != nil {
		run.Counts = tk.mux.Finish(cpuRes.Cycles)
		run.MuxRotations = tk.mux.Rotations
	}
	if err != nil {
		return run, tk, fmt.Errorf("sched: tenant %d run %s on %s: %w", tenant, p.Name, mach.Name, err)
	}
	return run, tk, nil
}

// mergeForeign delivers each tenant's drained in-flight captures as
// foreign samples into its round-robin successor's stream and fills in
// every Run's SchedStats. The coupling rule is deterministic and local:
// predecessor p's drain at its service k lands at successor
// u = (p+1) mod N's recorded resume mark for the same service index —
// the slice-start retirement where, in the interleaved global schedule,
// the late interrupt would fire (the service-index alignment is a
// one-slice approximation of that schedule; tenants are simulated on
// local clocks). The foreign sample carries the mark's IP/cycle/seq, the
// predecessor's nominal period, and no LBR snapshot (the facility was
// reset by the switch; profile builders skip short-LBR samples).
func mergeForeign(runs []*sampling.Run, tasks []*task) {
	n := len(runs)
	for u := 0; u < n; u++ {
		p := (u - 1 + n) % n
		if p == u {
			continue // single tenant (migration-only): no cross-tenant skid
		}
		var foreign []pmu.Sample
		for k, drained := range tasks[p].drains {
			if !drained || k >= len(tasks[u].marks) {
				continue
			}
			mk := tasks[u].marks[k]
			foreign = append(foreign, pmu.Sample{
				IP:        mk.IP,
				TriggerIP: mk.IP,
				Cycle:     mk.Cycle,
				Seq:       mk.Seq,
				Period:    runs[p].Period,
			})
		}
		tasks[u].stats.ForeignSamples = uint64(len(foreign))
		if len(foreign) > 0 {
			runs[u].Samples = mergeBySeq(runs[u].Samples, foreign)
		}
	}
	for t, tk := range tasks {
		s := tk.stats
		s.Tenants = n
		s.Tenant = t
		runs[t].Sched = &s
	}
}

// mergeBySeq merges two Seq-sorted sample streams, foreign samples
// ordered before own samples with equal or later Seq (the interrupt
// fires before the marked retirement's own overflow could).
func mergeBySeq(own, foreign []pmu.Sample) []pmu.Sample {
	out := make([]pmu.Sample, 0, len(own)+len(foreign))
	i, j := 0, 0
	for i < len(own) && j < len(foreign) {
		if foreign[j].Seq <= own[i].Seq {
			out = append(out, foreign[j])
			j++
		} else {
			out = append(out, own[i])
			i++
		}
	}
	out = append(out, own[i:]...)
	out = append(out, foreign[j:]...)
	return out
}
