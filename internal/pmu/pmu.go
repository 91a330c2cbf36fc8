// Package pmu models the Performance Monitoring Unit of the simulated
// machines: event counters, counter-overflow interrupts (PMIs) with skid,
// the Intel precise mechanisms (PEBS and the Ivy Bridge precisely-
// distributed PDIR flavor), AMD Instruction Based Sampling (IBS), and the
// Last Branch Record (LBR) facility.
//
// The package deliberately models the *causes* of sampling inaccuracy the
// paper identifies rather than injecting error distributions:
//
//   - Imprecise events: the PMI is delivered SkidCycles after the
//     triggering instruction retires, and the sampled IP is whatever
//     instruction is at the head of the retirement stream at delivery
//     time. Long-latency instructions occupy the head for many cycles, so
//     they soak up samples (the shadow/skid biases of §3.1).
//   - PEBS: overflow arms the facility; the hardware captures the next
//     event occurrence that retires in a *later* cycle (occurrences in the
//     same retirement burst cannot be captured), reproducing the
//     "distribution of samples is not guaranteed" caveat of Table 3. The
//     record carries the next-instruction IP (the infamous IP+1).
//   - PDIR (INST_RETIRED.PREC_DIST): captures exactly the Nth event with
//     no burst bias; the record is still IP+1.
//   - IBS: counts uops, tags the instruction containing the overflowing
//     uop, and reports its exact IP. Its 4-LSB hardware randomization
//     overwrites the low bits of the period — destroying the primality of
//     any software-chosen period.
//   - LBR: a ring of the last N taken-branch (source, target) pairs,
//     snapshotted into the sample record on demand.
package pmu

import (
	"fmt"
	"strings"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
)

// Event selects what a sampling counter counts.
type Event uint8

const (
	// EvInstRetired counts retired instructions
	// (INST_RETIRED.ANY / INST_RETIRED.ALL / RETIRED_INSTRUCTIONS).
	EvInstRetired Event = iota
	// EvUopsRetired counts retired micro-ops (AMD RETIRED_UOPS; the basis
	// of IBS op sampling).
	EvUopsRetired
	// EvBrTaken counts retired taken branches
	// (BR_INST_RETIRED.NEAR_TAKEN / BR_INST_EXEC:TAKEN).
	EvBrTaken
	// EvCondBr counts retired conditional branches, taken or not
	// (BR_INST_RETIRED.COND).
	EvCondBr
	// EvBrMispred counts mispredicted conditional branches
	// (BR_MISP_RETIRED.ALL_BRANCHES).
	EvBrMispred
	// EvLoad counts retired load instructions (MEM_UOPS_RETIRED.ALL_LOADS).
	EvLoad
	// EvStore counts retired store instructions
	// (MEM_UOPS_RETIRED.ALL_STORES).
	EvStore
	// EvFPOp counts retired floating-point arithmetic instructions
	// (FP_COMP_OPS_EXE / RETIRED_SSE_OPS).
	EvFPOp
	// EvCall counts retired near calls (BR_INST_RETIRED.NEAR_CALL).
	EvCall
	// EvRet counts retired near returns (BR_INST_RETIRED.NEAR_RETURN).
	EvRet

	numEvents
)

// NumEvents is the number of defined countable events.
const NumEvents = int(numEvents)

// String returns the generic event name.
func (e Event) String() string {
	switch e {
	case EvInstRetired:
		return "inst_retired"
	case EvUopsRetired:
		return "uops_retired"
	case EvBrTaken:
		return "br_taken"
	case EvCondBr:
		return "cond_br"
	case EvBrMispred:
		return "br_mispred"
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvFPOp:
		return "fp_op"
	case EvCall:
		return "call"
	case EvRet:
		return "ret"
	default:
		return "unknown"
	}
}

// EventByName parses an event name as spelled by String — the format of
// pmubench's and wlgen's -events flags.
func EventByName(name string) (Event, error) {
	for e := Event(0); e < Event(numEvents); e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("pmu: unknown event %q", name)
}

// ParseEventList parses a comma-separated event list ("inst_retired,load,
// br_taken"). An empty string yields an empty list.
func ParseEventList(s string) ([]Event, error) {
	if s == "" {
		return nil, nil
	}
	var out []Event
	for _, name := range strings.Split(s, ",") {
		e, err := EventByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// EventListString renders an event list in ParseEventList's format.
func EventListString(events []Event) string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.String()
	}
	return strings.Join(names, ",")
}

// Precision selects the sample-capture mechanism.
type Precision uint8

const (
	// Imprecise is plain counter overflow + interrupt: the sampled IP is
	// subject to skid and shadow.
	Imprecise Precision = iota
	// PrecisePEBS is Intel Precise Event Based Sampling: arm on
	// overflow, capture the next eligible event occurrence, report IP+1.
	PrecisePEBS
	// PreciseDist is the Ivy Bridge precisely-distributed PEBS flavor
	// (PDIR): captures exactly the overflowing occurrence, reports IP+1.
	PreciseDist
	// PreciseIBS is AMD Instruction Based Sampling: uop-based tagging
	// with an exact reported IP.
	PreciseIBS
)

// String returns the mechanism name.
func (p Precision) String() string {
	switch p {
	case Imprecise:
		return "imprecise"
	case PrecisePEBS:
		return "pebs"
	case PreciseDist:
		return "pdir"
	case PreciseIBS:
		return "ibs"
	default:
		return "unknown"
	}
}

// RandMode selects sampling-period randomization.
type RandMode uint8

const (
	// RandNone reloads the same period every time.
	RandNone RandMode = iota
	// RandSoftware adds a zero-mean software jitter to every reload, as a
	// patched perf would (the paper notes mainline perf cannot).
	RandSoftware
	// RandHW4LSB is the AMD IBS hardware scheme: the low 4 bits of the
	// reload value are replaced with random bits. Note this rounds the
	// period down to a multiple of 16 first — a prime software period
	// does not survive it.
	RandHW4LSB
)

// String returns the mode name.
func (r RandMode) String() string {
	switch r {
	case RandNone:
		return "none"
	case RandSoftware:
		return "software"
	case RandHW4LSB:
		return "hw4lsb"
	default:
		return "unknown"
	}
}

// BranchRecord is one LBR entry: a retired taken branch from From to To
// (code indices).
type BranchRecord struct {
	From, To uint32
}

// Sample is one collected PMU sample.
type Sample struct {
	// IP is the instruction address (code index) a profiling tool would
	// attribute the sample to. Depending on the mechanism this may be the
	// skidded delivery address, the PEBS next-instruction IP, or the IBS
	// tagged instruction.
	IP uint32
	// TriggerIP is the ground-truth address of the instruction whose
	// retirement overflowed the counter. Only diagnostics and tests may
	// use it; profile construction must not (tools cannot see it).
	TriggerIP uint32
	// Cycle is the capture cycle.
	Cycle uint64
	// Seq is the dynamic instruction number at capture.
	Seq uint64
	// Period is the effective sampling period that led to this sample
	// (after randomization), in event units.
	Period uint64
	// LBR is the branch-record snapshot at capture, oldest first; nil if
	// the configuration does not capture LBR.
	LBR []BranchRecord
}

// Config programs one sampling counter.
type Config struct {
	// Event is the counted event.
	Event Event
	// Precision is the capture mechanism.
	Precision Precision
	// Period is the base sampling period in event units.
	Period uint64
	// Rand is the period randomization mode.
	Rand RandMode
	// RandAmp is the software-jitter amplitude (events); used only with
	// RandSoftware. Zero selects Period/8.
	RandAmp uint64
	// SkidCycles is the PMI delivery latency for Imprecise sampling.
	SkidCycles uint64
	// CaptureLBR snapshots the LBR stack into each sample.
	CaptureLBR bool
	// LBRDepth is the LBR stack depth when CaptureLBR is set.
	LBRDepth int
	// Seed seeds the period randomizer.
	Seed uint64
	// HWExactIP makes precise records carry the triggering instruction's
	// own IP instead of the next-instruction IP — the §6.2 hardware fix,
	// only present on the FutureGen machine model.
	HWExactIP bool
	// LBRContention models a second LBR consumer sharing the facility in
	// call-stack filtering mode (perf --call-graph lbr), per §6.2's
	// warning that the LBR is "a valuable single resource" and the IP+1
	// fix in hardware would "avoid collisions on LBRs ... with other
	// filtered collections such as call-stack mode". The value is the
	// fraction of samples whose LBR snapshot reflects the *other*
	// consumer's filtering (calls/returns only) instead of all taken
	// branches — useless, and silently wrong, for basic-block counting.
	LBRContention float64
	// FreqMode enables perf-style frequency mode: instead of a fixed
	// event period, the PMU retunes the period after every sample so
	// samples arrive roughly every TargetIntervalCycles. Mainline perf
	// defaults to this ("an architectural event is typically set to
	// capture a sample every ~1 millisecond", §3.4) — and it trades the
	// period-choice problem for a time-uniform sample distribution,
	// which measures cycles, not instruction counts.
	FreqMode bool
	// TargetIntervalCycles is the frequency-mode sampling interval target
	// (cycles between samples). Zero selects Period (assumes IPC ≈ 1).
	TargetIntervalCycles uint64
}

// PMU is the monitor implementation that samples a run. It implements
// cpu.Monitor.
type PMU struct {
	cfg     Config
	rng     *stats.RNG
	lbr     lbrRing
	csRing  lbrRing // call-stack-filtered ring for the contention model
	samples []Sample
	arena   lbrArena // backing storage for the samples' LBR snapshots

	counter    uint64
	effPeriod  uint64
	basePeriod uint64 // mutable in frequency mode
	lastSample uint64 // cycle of the previous sample (frequency mode)
	armed      bool   // PEBS armed, waiting for an eligible occurrence
	armCycle   uint64
	pendingPMI bool // imprecise PMI scheduled
	deliverAt  uint64
	trigIP     uint32

	pendingIBS bool // IBS tag displaced by hardware randomization

	// Totals (counting mode runs alongside sampling, like a real PMU's
	// fixed counters).
	TotalEvents uint64
	Overflows   uint64
	DroppedPMIs uint64

	// tele is the run's telemetry counter block. The PMU owns it; a
	// wrapping Mux or scheduler task shares the same block (see
	// cpu.EngineObserver), so one run publishes one set of counters no
	// matter how deep the monitor chain is. Telemetry observes, never
	// perturbs: nothing the unit computes reads these back.
	tele telemetry.EngineCounters
}

// EngineCounters implements cpu.EngineObserver: the per-run telemetry
// counter block shared along the monitor chain.
func (p *PMU) EngineCounters() *telemetry.EngineCounters { return &p.tele }

// New creates a PMU for the given configuration.
func New(cfg Config) *PMU {
	if cfg.Period == 0 {
		panic("pmu: zero sampling period")
	}
	if cfg.RandAmp == 0 {
		cfg.RandAmp = cfg.Period / 8
	}
	if cfg.LBRDepth <= 0 {
		cfg.LBRDepth = 16
	}
	if cfg.FreqMode && cfg.TargetIntervalCycles == 0 {
		cfg.TargetIntervalCycles = cfg.Period
	}
	p := &PMU{cfg: cfg, rng: stats.NewRNG(cfg.Seed ^ 0x9a11ce5eed), basePeriod: cfg.Period}
	p.lbr.init(cfg.LBRDepth)
	p.csRing.init(cfg.LBRDepth)
	p.effPeriod = p.nextPeriod()
	return p
}

// Samples returns the collected samples.
func (p *PMU) Samples() []Sample { return p.samples }

// Config returns the active configuration.
func (p *PMU) Config() Config { return p.cfg }

// nextPeriod applies the randomization policy to produce the next reload
// value.
func (p *PMU) nextPeriod() uint64 {
	base := p.basePeriod
	switch p.cfg.Rand {
	case RandNone:
		return base
	case RandSoftware:
		j := p.rng.Jitter(p.cfg.RandAmp)
		v := int64(base) + j
		if v < 1 {
			v = 1
		}
		return uint64(v)
	case RandHW4LSB:
		return (base &^ 15) | p.rng.Uint64n(16)
	default:
		return base
	}
}

// units returns how many event units ev contributes to the counter.
func (p *PMU) units(ev cpu.RetireEvent) uint64 {
	return EventUnits(p.cfg.Event, ev)
}

// EventUnits returns how many units of event e one retirement contributes
// — the single definition of what each countable event counts, shared by
// the sampling PMU and the multiplexed counters (Mux).
func EventUnits(e Event, ev cpu.RetireEvent) uint64 {
	switch e {
	case EvInstRetired:
		return 1
	case EvUopsRetired:
		return uint64(ev.Uops)
	case EvBrTaken:
		if ev.Taken {
			return 1
		}
	case EvCondBr:
		if ev.Op.IsCondBranch() {
			return 1
		}
	case EvBrMispred:
		if ev.Mispred {
			return 1
		}
	case EvLoad:
		if ev.Op == isa.OpLoad {
			return 1
		}
	case EvStore:
		if ev.Op == isa.OpStore {
			return 1
		}
	case EvFPOp:
		if c := ev.Op.ClassOf(); c == isa.ClassFP || c == isa.ClassFPDiv {
			return 1
		}
	case EvCall:
		if ev.Op.IsCall() {
			return 1
		}
	case EvRet:
		if ev.Op.IsRet() {
			return 1
		}
	}
	return 0
}

// EventUnitsBulk returns how many units of event e a whole stride
// contributes, from the engine's per-class totals. It must agree with
// EventUnits summed over the stride; the differential harness enforces
// that through the Mux's exact counters.
func EventUnitsBulk(e Event, c cpu.BulkCounts) uint64 {
	switch e {
	case EvInstRetired:
		return c.Instrs
	case EvUopsRetired:
		return c.Uops
	case EvBrTaken:
		return c.TakenBranches
	case EvCondBr:
		return c.CondBranches
	case EvBrMispred:
		return c.Mispredicts
	case EvLoad:
		return c.Loads
	case EvStore:
		return c.Stores
	case EvFPOp:
		return c.FPOps
	case EvCall:
		return c.Calls
	case EvRet:
		return c.Rets
	default:
		return 0
	}
}

// OnRetire implements cpu.Monitor.
func (p *PMU) OnRetire(ev cpu.RetireEvent) {
	// Per-instruction delivery is already the slow path, so event-mode
	// accounting lives here, not in the engine loop.
	p.tele.EventInstrs++

	// LBR updates first: a retiring taken branch is in the stack by the
	// time any PMI for it could be taken.
	if ev.Taken && p.cfg.CaptureLBR {
		p.lbr.push(BranchRecord{From: ev.Idx, To: ev.Target})
		if p.cfg.LBRContention > 0 {
			// The competing consumer runs the facility in call-stack
			// mode: calls push, returns pop, other branches are filtered
			// out.
			switch {
			case ev.Op.IsCall():
				p.csRing.push(BranchRecord{From: ev.Idx, To: ev.Target})
			case ev.Op.IsRet():
				p.csRing.pop()
			}
		}
	}

	// Deliver a pending imprecise PMI: the sampled IP is the oldest
	// not-yet-retired instruction at delivery time, i.e. the first
	// instruction whose retirement cycle reaches the delivery cycle.
	if p.pendingPMI && ev.Cycle >= p.deliverAt {
		p.record(ev.Idx, ev, p.effPeriodForSample())
		p.pendingPMI = false
	}

	// Deliver a pending IBS tag: under hardware period randomization the
	// counter expires mid dispatch-window and the tagged uop comes from
	// the following window, displacing the reported instruction forward
	// (see Config.SkidCycles doc and DESIGN.md on the AMD randomization
	// finding).
	if p.pendingIBS && ev.Cycle > p.armCycle {
		p.record(ev.Idx, ev, p.effPeriodForSample())
		p.pendingIBS = false
	}

	// PEBS capture: armed, and this is an eligible occurrence (an event
	// unit retiring in a cycle strictly after arming — occurrences inside
	// the arming burst are not capturable).
	u := p.units(ev)
	if p.armed && u > 0 && ev.Cycle > p.armCycle {
		p.capturePrecise(ev)
		p.armed = false
	}

	if u == 0 {
		return
	}
	p.TotalEvents += u
	p.counter += u
	if p.counter < p.effPeriod {
		return
	}

	// Counter overflow at this instruction.
	p.Overflows++
	p.counter -= p.effPeriod
	p.trigIP = ev.Idx
	switch p.cfg.Precision {
	case Imprecise:
		if p.pendingPMI {
			// Previous PMI not yet delivered; the new overflow is lost.
			p.DroppedPMIs++
		} else {
			p.pendingPMI = true
			// Interrupt delivery latency is not a constant on real
			// hardware: it depends on interruptibility windows and
			// pipeline drain state. Model it as the machine skid plus a
			// uniform jitter of up to a quarter of the skid.
			jitter := uint64(0)
			if j := p.cfg.SkidCycles / 4; j > 0 {
				jitter = p.rng.Uint64n(j + 1)
			}
			p.deliverAt = ev.Cycle + p.cfg.SkidCycles + jitter
		}
	case PrecisePEBS:
		if p.armed {
			p.DroppedPMIs++
		} else {
			p.armed = true
			p.armCycle = ev.Cycle
		}
	case PreciseDist:
		// PDIR: capture exactly this occurrence.
		p.capturePrecise(ev)
	case PreciseIBS:
		if p.cfg.Rand == RandHW4LSB {
			// With hardware period randomization the counter expires
			// untethered from instruction boundaries, so the tag attaches
			// to a uop of the next dispatch/retire group; like PEBS
			// arming, the capture is biased toward the heads of
			// retirement bursts (post-stall instructions). This is the
			// mechanism behind the paper's observation that AMD results
			// worsen when the built-in randomization is used (§5.1); see
			// DESIGN.md for the modelling rationale. Unlike PEBS, IBS
			// reports the exact IP of the tagged instruction.
			if p.pendingIBS {
				p.DroppedPMIs++
			} else {
				p.pendingIBS = true
				p.armCycle = ev.Cycle
			}
		} else {
			// IBS proper: the instruction containing the overflowing uop
			// is tagged and its exact IP is reported.
			p.record(ev.Idx, ev, p.effPeriodForSample())
		}
	}
	p.effPeriod = p.nextPeriod()
}

// The PMU implements cpu.FastMonitor: the fast engine advances whole basic
// blocks between PMU-relevant boundaries and falls back to per-instruction
// OnRetire delivery exactly when the PMU says so (FastHeadroom == 0).
var _ cpu.FastMonitor = (*PMU)(nil)

// FastHeadroom implements cpu.FastMonitor. It returns the number of
// instructions guaranteed to retire without any observable PMU action: no
// counter overflow, no sample capture, no interrupt bookkeeping, no RNG
// draw. The grant is zero whenever the unit is in a stateful window that
// must observe the event stream instruction by instruction — a pending
// imprecise PMI riding out its skid, an armed PEBS capture window, a
// displaced IBS tag — or when the counter is within one event of overflow
// (which under HW 4-LSB randomization can mean an entire grant of zero:
// tiny randomized reload values keep the unit permanently near a
// boundary). The unit counts events, not cycles: it ignores the horizon
// and has no deadline (cpu.NoDeadline).
//
// For uop-counted events the unit budget is converted to instructions by
// dividing by isa.MaxUops; every other countable event contributes at
// most one unit per instruction, so the unit budget is already a safe
// instruction count.
// Each zero grant increments exactly one telemetry fallback bucket —
// the first stateful window that refused, checked in delivery order —
// so the buckets always sum to the total number of fallback events.
func (p *PMU) FastHeadroom(horizon uint64) (uint64, uint64) {
	if p.pendingPMI {
		p.tele.Fallbacks[telemetry.FallbackOverflow]++
		return 0, cpu.NoDeadline
	}
	if p.pendingIBS {
		p.tele.Fallbacks[telemetry.FallbackIBSTag]++
		return 0, cpu.NoDeadline
	}
	if p.armed {
		p.tele.Fallbacks[telemetry.FallbackArmedPEBS]++
		return 0, cpu.NoDeadline
	}
	if p.counter+1 >= p.effPeriod {
		p.countNearOverflow()
		return 0, cpu.NoDeadline
	}
	avail := p.effPeriod - p.counter - 1
	if p.cfg.Event == EvUopsRetired {
		if g := avail / isa.MaxUops; g > 0 {
			return g, cpu.NoDeadline
		}
		// The unit budget exists but does not cover even one worst-case
		// instruction: still an overflow-adjacent refusal.
		p.countNearOverflow()
		return 0, cpu.NoDeadline
	}
	return avail, cpu.NoDeadline
}

// countNearOverflow attributes a zero grant caused by the counter sitting
// within one (worst-case) instruction of its reload value. Under IBS
// hardware 4-LSB randomization this is its own bucket: tiny randomized
// reload values keep the unit chronically near a boundary, the dominant
// fallback cause on the AMD model.
func (p *PMU) countNearOverflow() {
	if p.cfg.Rand == RandHW4LSB {
		p.tele.Fallbacks[telemetry.FallbackHW4LSB]++
	} else {
		p.tele.Fallbacks[telemetry.FallbackOverflow]++
	}
}

// WantBranches implements cpu.FastMonitor: LBR-capturing configurations
// must see every retired taken branch even in the middle of a stride,
// because the ring's contents at the next sample depend on all of them.
func (p *PMU) WantBranches() bool { return p.cfg.CaptureLBR }

// OnFastBranch implements cpu.FastMonitor: the stride-mode half of the LBR
// update in OnRetire.
func (p *PMU) OnFastBranch(from, to uint32, op isa.Op) {
	p.lbr.push(BranchRecord{From: from, To: to})
	if p.cfg.LBRContention > 0 {
		switch {
		case op.IsCall():
			p.csRing.push(BranchRecord{From: from, To: to})
		case op.IsRet():
			p.csRing.pop()
		}
	}
}

// BulkRetire implements cpu.FastMonitor: account a stride the engine
// retired inside the last FastHeadroom grant. By the grant's construction
// the counter cannot reach the reload value, so no overflow logic runs
// here; the invariant is asserted because a violation means silently
// diverging sample streams.
func (p *PMU) BulkRetire(c cpu.BulkCounts) {
	p.tele.Strides++
	p.tele.StrideInstrs += c.Instrs
	u := EventUnitsBulk(p.cfg.Event, c)
	p.TotalEvents += u
	p.counter += u
	if p.counter >= p.effPeriod {
		panic("pmu: BulkRetire overran the sampling period (fast-engine headroom contract violation)")
	}
}

// capturePrecise records a PEBS/PDIR sample for the captured occurrence
// ev. The record carries the next-instruction IP: the branch target when
// the captured instruction is a taken branch, the next sequential address
// otherwise. This is the IP+1 problem of Table 3.
func (p *PMU) capturePrecise(ev cpu.RetireEvent) {
	if p.cfg.HWExactIP {
		// §6.2 hardware fix: the record carries the captured
		// instruction's own IP.
		p.record(ev.Idx, ev, p.effPeriodForSample())
		return
	}
	var ip uint32
	if ev.Taken {
		ip = ev.Target
	} else {
		ip = ev.Idx + 1
	}
	p.record(ip, ev, p.effPeriodForSample())
}

// effPeriodForSample returns the period value to attach to a sample. For
// attribution purposes tools only know the *base* period (randomized
// reload values are invisible to them), so we report the base — which in
// frequency mode is the current feedback value, exactly what perf writes
// into each sample record.
func (p *PMU) effPeriodForSample() uint64 { return p.basePeriod }

func (p *PMU) record(ip uint32, ev cpu.RetireEvent, period uint64) {
	if p.cfg.FreqMode {
		p.retunePeriod(ev.Cycle)
	}
	s := Sample{
		IP:        ip,
		TriggerIP: p.trigIP,
		Cycle:     ev.Cycle,
		Seq:       ev.Seq,
		Period:    period,
	}
	if p.cfg.CaptureLBR {
		if p.cfg.LBRContention > 0 && p.rng.Float64() < p.cfg.LBRContention {
			// The other consumer owned the LBR when this PMI fired: the
			// snapshot holds call-stack-filtered records.
			s.LBR = p.csRing.snapshot(&p.arena)
		} else {
			s.LBR = p.lbr.snapshot(&p.arena)
		}
	}
	if p.samples == nil {
		// One run produces hundreds to thousands of samples; skipping the
		// small steps of append's growth ladder keeps steady-state
		// collection at a handful of allocations.
		p.samples = make([]Sample, 0, initialSampleCap)
	}
	p.samples = append(p.samples, s)
}

// retunePeriod implements the frequency-mode feedback loop, following the
// kernel's perf_adjust_period: after each sample, scale the period by the
// ratio of the target interval to the observed one, damped by averaging
// with the current period, and clamped to a sane range.
func (p *PMU) retunePeriod(cycle uint64) {
	interval := cycle - p.lastSample
	p.lastSample = cycle
	if interval == 0 {
		return
	}
	ideal := float64(p.basePeriod) * float64(p.cfg.TargetIntervalCycles) / float64(interval)
	next := uint64((float64(p.basePeriod) + ideal) / 2)
	const minPeriod = 16
	if next < minPeriod {
		next = minPeriod
	}
	if max := p.cfg.Period * 64; next > max {
		next = max
	}
	p.basePeriod = next
}

// EffectiveBasePeriod returns the current base period — constant in fixed
// mode, the converged feedback value in frequency mode.
func (p *PMU) EffectiveBasePeriod() uint64 { return p.basePeriod }

// Preempt models a context switch-out: the OS deschedules the task while
// the unit is mid-capture. Any in-flight delivery — an imprecise PMI
// riding out its skid, an armed PEBS window, a displaced IBS tag — cannot
// complete against this task's stream; the interrupt fires after the
// switch, against whatever runs next (the multi-tenant scheduler turns
// these into the successor tenant's foreign samples). The pending state
// is cleared, the lost delivery is counted as a dropped PMI, and the
// return value reports whether one was in flight. Counter contents
// survive (perf saves and restores them per task).
//
// The caller must invoke this only at a fast-path fallback point (the
// scheduler's deadlines are, exactly like mux rotations), so both engines
// observe the preemption at the same retirement.
func (p *PMU) Preempt() bool {
	drained := p.pendingPMI || p.pendingIBS || p.armed
	if drained {
		p.DroppedPMIs++
	}
	p.pendingPMI = false
	p.pendingIBS = false
	p.armed = false
	return drained
}

// SetSkidCycles repoints the imprecise-PMI delivery latency, used by the
// scheduler's migration mode when a task lands on a machine model with a
// different skid. It affects only overflows that happen after the call.
func (p *PMU) SetSkidCycles(skid uint64) { p.cfg.SkidCycles = skid }

// InjectKernelEvents models the switch-in tail of a context switch: perf
// restores the task's counters before the kernel path returns to user
// code, so the last stretch of kernel execution — instrs instructions of
// it — leaks into the task's counts. The counter advances by the kernel
// instruction mix's contribution to the configured event; overflows that
// land inside the kernel window deliver their PMI against kernel code,
// which a user-space profile never sees, so those samples are dropped
// (returned as drops) while the period reload sequence advances exactly
// as if they had been taken. No pending capture state is armed: the
// kernel window is over before user code resumes.
func (p *PMU) InjectKernelEvents(instrs uint64) (drops uint64) {
	u := KernelEventUnits(p.cfg.Event, instrs)
	if u == 0 {
		return 0
	}
	p.TotalEvents += u
	p.counter += u
	for p.counter >= p.effPeriod {
		p.counter -= p.effPeriod
		p.Overflows++
		drops++
		p.effPeriod = p.nextPeriod()
	}
	return drops
}

// KernelEventUnits returns how many units of event e a stretch of instrs
// kernel context-switch-path instructions contributes. The mix is a fixed
// characterization of scheduler/switch code — branchy integer code with
// plenty of memory traffic and no floating point — in units per 16
// instructions, applied with integer arithmetic so both engines and every
// tenant count the same leak deterministically.
func KernelEventUnits(e Event, instrs uint64) uint64 {
	var per16 uint64
	switch e {
	case EvInstRetired:
		per16 = 16
	case EvUopsRetired:
		per16 = 20
	case EvBrTaken:
		per16 = 3
	case EvCondBr:
		per16 = 4
	case EvBrMispred:
		per16 = 1
	case EvLoad:
		per16 = 5
	case EvStore:
		per16 = 4
	case EvCall:
		per16 = 1
	case EvRet:
		per16 = 1
	}
	return instrs * per16 / 16
}

// initialSampleCap seeds the sample buffer's capacity on the first
// recorded sample (a run that samples nothing allocates nothing).
const initialSampleCap = 512

// lbrArena hands out LBR snapshot slices carved from large shared
// chunks, so a collection run costs one allocation per ~lbrArenaChunk
// snapshot entries instead of one per sample. Samples retain their
// snapshots beyond the run (they escape through Run.Samples), which
// rules out sync.Pool recycling — but the snapshots are immutable once
// taken, so packing them into shared chunks is safe. Every handed-out
// slice has its capacity clipped to its length, so even an (incorrect)
// append by a consumer cannot clobber a neighboring snapshot.
type lbrArena struct {
	chunk []BranchRecord
}

// lbrArenaChunk is the arena chunk size in entries (~32 KiB chunks).
const lbrArenaChunk = 4096

// alloc returns a zeroed slice of n records backed by the arena. n = 0
// returns a non-nil empty slice: "captured, empty" must stay distinct
// from the nil "not captured" in every observable (JSON, DiffRuns).
func (a *lbrArena) alloc(n int) []BranchRecord {
	if n == 0 {
		return []BranchRecord{}
	}
	if len(a.chunk)+n > cap(a.chunk) {
		size := lbrArenaChunk
		if n > size {
			size = n
		}
		a.chunk = make([]BranchRecord, 0, size)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// lbrRing is the Last Branch Record stack: a ring buffer overwritten by
// every retiring taken branch.
type lbrRing struct {
	entries []BranchRecord
	pos     int
	filled  int
}

func (l *lbrRing) init(depth int) {
	l.entries = make([]BranchRecord, depth)
	l.pos = 0
	l.filled = 0
}

func (l *lbrRing) push(r BranchRecord) {
	l.entries[l.pos] = r
	l.pos = (l.pos + 1) % len(l.entries)
	if l.filled < len(l.entries) {
		l.filled++
	}
}

// pop removes the newest entry (call-stack mode return handling).
func (l *lbrRing) pop() {
	if l.filled == 0 {
		return
	}
	l.pos--
	if l.pos < 0 {
		l.pos += len(l.entries)
	}
	l.filled--
}

// snapshot returns the stack contents, oldest branch first, in storage
// carved from the arena.
func (l *lbrRing) snapshot(a *lbrArena) []BranchRecord {
	out := a.alloc(l.filled)
	start := l.pos - l.filled
	if start < 0 {
		start += len(l.entries)
	}
	for i := 0; i < l.filled; i++ {
		out[i] = l.entries[(start+i)%len(l.entries)]
	}
	return out
}
