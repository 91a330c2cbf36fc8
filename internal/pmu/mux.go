// Counter multiplexing: the OS-style virtualized PMU layer.
//
// Real machines have a handful of physical counters; perf-style kernels
// accept arbitrarily many requested events, time-share the counters on a
// timer tick, and *scale* each event's raw count by enabled/running time
// to estimate what a dedicated counter would have read. That scaling is a
// first-class source of error the paper's trust question extends to
// naturally: the estimate is exact only if the event rate is stationary
// across rotation windows, which phased workloads violate. The simulator
// is in the unique position of producing the scaled estimate *and* the
// exact ground-truth count side by side, so the multiplexing error can be
// measured directly (internal/experiments' mux family).
package pmu

import (
	"fmt"
	"math"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/telemetry"
)

// MuxPolicy selects how the multiplexer shares counters between more
// requested events than the machine can host.
type MuxPolicy uint8

const (
	// MuxRoundRobin rotates the event list by one position every
	// timeslice, like the perf core's rotation of flexible events: every
	// event gets counter time eventually, and every event's count is an
	// extrapolation.
	MuxRoundRobin MuxPolicy = iota
	// MuxPriority schedules events strictly in request order, like a list
	// of pinned perf events: the first events that fit keep their counters
	// for the whole run (exact counts), the rest never run at all
	// (perf's "<not counted>").
	MuxPriority
)

// String returns the flag spelling of the policy.
func (p MuxPolicy) String() string {
	switch p {
	case MuxRoundRobin:
		return "rr"
	case MuxPriority:
		return "priority"
	default:
		return "unknown"
	}
}

// MuxPolicyByName parses a -mux-policy flag value.
func MuxPolicyByName(name string) (MuxPolicy, error) {
	switch name {
	case "rr", "round-robin":
		return MuxRoundRobin, nil
	case "priority":
		return MuxPriority, nil
	default:
		return 0, fmt.Errorf("pmu: unknown mux policy %q (want rr or priority)", name)
	}
}

// DefaultMuxTimeslice is the rotation timeslice in simulated cycles when
// MuxConfig.TimesliceCycles is zero. Real perf rotates on the scheduler
// tick (1-4ms, millions of cycles); the default here is scaled down the
// same way the experiment harness scales workloads and sampling periods,
// keeping windows-per-run in the deployment regime.
const DefaultMuxTimeslice = 2000

// MuxConfig programs the virtualized PMU layer.
type MuxConfig struct {
	// Events is the requested counting-event list, in request order.
	// Duplicates are allowed (they occupy separate counters, as in perf).
	Events []Event
	// TimesliceCycles is the rotation timeslice in simulated cycles
	// (0 = DefaultMuxTimeslice).
	TimesliceCycles uint64
	// Policy selects the rotation policy.
	Policy MuxPolicy
	// GenCounters is the number of general-purpose physical counters
	// available to the multiplexed events (after any pinned sampling
	// counter is accounted for — see sampling.Collect).
	GenCounters int
	// FixedCounterFree reports that the machine's fixed
	// instructions-retired counter exists and is not claimed by the
	// sampling unit: an EvInstRetired request can ride on it without
	// consuming a general counter. No other event can use it — that is
	// the fixed-counter rule the classic method's Table 3 comment refers
	// to.
	FixedCounterFree bool
}

// MuxCount is the outcome of one requested event after a multiplexed run:
// the exact ground-truth count only a simulator can see, the raw counted
// value, the enabled/running cycle accounting, and the perf-style scaled
// estimate a real tool would report.
type MuxCount struct {
	// Event is the counted event.
	Event Event `json:"event"`
	// Exact is the ground-truth occurrence count over the whole run.
	Exact uint64 `json:"exact"`
	// Raw is the count accumulated while the event held a counter.
	Raw uint64 `json:"raw"`
	// EnabledCycles is the time the event was requested (the whole run).
	EnabledCycles uint64 `json:"enabled_cycles"`
	// RunningCycles is the time the event actually held a counter.
	RunningCycles uint64 `json:"running_cycles"`
	// Scaled is the extrapolated estimate Raw * Enabled/Running — what
	// perf reports next to its "(xx.x%)" multiplexing annotation. Zero
	// when the event never ran (perf's "<not counted>").
	Scaled float64 `json:"scaled"`
}

// TableCells returns the conventional CLI-table rendering of the count:
// exact, scaled, relative error, and the running/enabled percentage
// (perf's multiplexing annotation; "-" when enabled is zero). Shared by
// wlgen -events and pmubench -experiment mux so the two surfaces cannot
// drift apart.
func (c MuxCount) TableCells() (exact, scaled, relErr, running string) {
	running = "-"
	if c.EnabledCycles > 0 {
		running = fmt.Sprintf("%.1f%%", 100*float64(c.RunningCycles)/float64(c.EnabledCycles))
	}
	return fmt.Sprintf("%d", c.Exact), fmt.Sprintf("%.0f", c.Scaled),
		fmt.Sprintf("%.4f", c.RelError()), running
}

// RelError returns the multiplexing-induced relative counting error
// |Scaled - Exact| / Exact. A starved event (never ran) counts as error 1
// (the whole count is missing); an event that never occurred has error 0.
func (c MuxCount) RelError() float64 {
	if c.Exact == 0 {
		return 0
	}
	if c.RunningCycles == 0 {
		return 1
	}
	return math.Abs(c.Scaled-float64(c.Exact)) / float64(c.Exact)
}

// Mux is the virtualized multi-event PMU: it schedules the requested
// events onto the physical counter budget, rotating on the configured
// timeslice, and counts both exactly and as-scheduled. It implements
// cpu.Monitor and cpu.FastMonitor, optionally wrapping an inner sampling
// PMU so one run produces samples and multiplexed counts together:
// monitor calls are observed by the mux first, then forwarded.
//
// Rotation is deterministic and engine-independent: the rotation deadline
// is serviced at the first retirement whose cycle reaches it (a timer
// interrupt is only visible at instruction boundaries), *before* that
// retirement's events are counted, and the next deadline is one timeslice
// after the service cycle. The fast-path contract makes deadlines
// stride-safe: FastHeadroom hands the deadline to the engine, whose
// stride-loop fence keeps strided retirements short of it, and refuses
// once the engine's horizon reaches it (rotation boundaries are fallback
// points), so strided and per-instruction execution count every window
// identically — the differential harness checks the counts bit for bit.
type Mux struct {
	cfg   MuxConfig
	inner cpu.FastMonitor // optional sampling unit; may be nil

	exact     []uint64
	raw       []uint64
	running   []uint64
	scheduled []bool

	// contended is false when every event fits the budget: the schedule
	// is static and the mux never rotates, costs no fast-path fallbacks,
	// and scales nothing.
	contended bool
	rot       int    // rotation offset into Events (round-robin)
	winStart  uint64 // cycle the current window opened
	nextRot   uint64 // rotation deadline (contended round-robin only)
	finished  bool

	// Rotations counts serviced rotation deadlines.
	Rotations uint64

	// tele is the run's telemetry counter block — the inner sampling
	// unit's block when one is wrapped (one run, one block), the mux's
	// own otherwise.
	tele *telemetry.EngineCounters
}

// EngineCounters implements cpu.EngineObserver.
func (m *Mux) EngineCounters() *telemetry.EngineCounters { return m.tele }

// NewMux creates a multiplexer for the given configuration, wrapping
// inner (which may be nil for a counting-only run).
func NewMux(cfg MuxConfig, inner cpu.FastMonitor) *Mux {
	if len(cfg.Events) == 0 {
		panic("pmu: mux with no requested events")
	}
	if cfg.TimesliceCycles == 0 {
		cfg.TimesliceCycles = DefaultMuxTimeslice
	}
	if cfg.GenCounters < 0 {
		cfg.GenCounters = 0
	}
	m := &Mux{
		cfg:       cfg,
		inner:     inner,
		exact:     make([]uint64, len(cfg.Events)),
		raw:       make([]uint64, len(cfg.Events)),
		running:   make([]uint64, len(cfg.Events)),
		scheduled: make([]bool, len(cfg.Events)),
	}
	if o, ok := inner.(cpu.EngineObserver); ok {
		m.tele = o.EngineCounters()
	}
	if m.tele == nil {
		m.tele = &telemetry.EngineCounters{}
	}
	// Capacity check with rotation offset 0: if everything fits, the
	// schedule is static for the whole run regardless of policy.
	m.place()
	all := true
	for _, s := range m.scheduled {
		all = all && s
	}
	if cfg.GenCounters == 0 && !cfg.FixedCounterFree {
		panic("pmu: mux with no available counters")
	}
	// Priority placement never changes, so only contended round-robin
	// rotates.
	m.contended = !all && cfg.Policy == MuxRoundRobin
	if m.contended {
		m.nextRot = cfg.TimesliceCycles
	}
	return m
}

// place computes the active counter assignment for the current rotation
// offset: walk the (rotated) request list, give EvInstRetired the fixed
// counter when it is free, hand out general counters until they run out.
func (m *Mux) place() {
	gen := m.cfg.GenCounters
	fixed := m.cfg.FixedCounterFree
	n := len(m.cfg.Events)
	for i := range m.scheduled {
		m.scheduled[i] = false
	}
	for k := 0; k < n; k++ {
		idx := k
		if m.cfg.Policy == MuxRoundRobin {
			idx = (m.rot + k) % n
		}
		switch {
		case m.cfg.Events[idx] == EvInstRetired && fixed:
			fixed = false
			m.scheduled[idx] = true
		case gen > 0:
			gen--
			m.scheduled[idx] = true
		}
	}
}

// closeWindow credits the running time of the window ending at cyc.
func (m *Mux) closeWindow(cyc uint64) {
	for i, s := range m.scheduled {
		if s && cyc > m.winStart {
			m.running[i] += cyc - m.winStart
		}
	}
	m.winStart = cyc
}

// rotate services one rotation deadline at cycle cyc.
func (m *Mux) rotate(cyc uint64) {
	m.closeWindow(cyc)
	m.rot = (m.rot + 1) % len(m.cfg.Events)
	m.place()
	m.nextRot = cyc + m.cfg.TimesliceCycles
	m.Rotations++
}

// OnRetire implements cpu.Monitor: service a due rotation, count the
// retirement for every requested event (exactly always, raw only while
// scheduled), and forward to the inner sampling unit.
func (m *Mux) OnRetire(ev cpu.RetireEvent) {
	if m.contended && ev.Cycle >= m.nextRot {
		m.rotate(ev.Cycle)
	}
	for i, e := range m.cfg.Events {
		u := EventUnits(e, ev)
		if u == 0 {
			continue
		}
		m.exact[i] += u
		if m.scheduled[i] {
			m.raw[i] += u
		}
	}
	if m.inner != nil {
		m.inner.OnRetire(ev)
	} else {
		// Innermost monitor in the chain: event-mode accounting is ours
		// (a wrapped unit counts in its own OnRetire).
		m.tele.EventInstrs++
	}
}

// FastHeadroom implements cpu.FastMonitor: the inner unit's grant, and
// the lesser of its deadline and the rotation deadline. The engine's
// fence keeps strides short of the deadline, so the mux refuses only
// once the engine's horizon has reached it.
//
// A zero mux grant returns before consulting the inner unit, so exactly
// one layer attributes each fallback event (headroom queries are pure
// modulo telemetry, so the skipped inner call is behavior-identical);
// when the inner unit is the refuser it has already counted its reason.
func (m *Mux) FastHeadroom(horizon uint64) (uint64, uint64) {
	grant, deadline := uint64(1)<<40, cpu.NoDeadline
	if m.contended {
		if horizon >= m.nextRot {
			m.tele.Fallbacks[telemetry.FallbackMuxDeadline]++
			return 0, m.nextRot
		}
		deadline = m.nextRot
	}
	if m.inner != nil {
		ig, id := m.inner.FastHeadroom(horizon)
		grant, deadline = min(grant, ig), min(deadline, id)
	}
	return grant, deadline
}

// WantBranches implements cpu.FastMonitor: the mux itself needs only
// bulk totals, so the branch stream is demanded only for the inner unit.
func (m *Mux) WantBranches() bool {
	return m.inner != nil && m.inner.WantBranches()
}

// OnFastBranch implements cpu.FastMonitor by forwarding to the inner
// unit (taken-branch counting is covered by BulkCounts.TakenBranches).
func (m *Mux) OnFastBranch(from, to uint32, op isa.Op) {
	if m.inner != nil {
		m.inner.OnFastBranch(from, to, op)
	}
}

// BulkRetire implements cpu.FastMonitor: attribute a whole stride to the
// current schedule. The engine's fence guarantees no rotation deadline
// lies inside the stride, so the attribution is exact.
func (m *Mux) BulkRetire(c cpu.BulkCounts) {
	for i, e := range m.cfg.Events {
		u := EventUnitsBulk(e, c)
		if u == 0 {
			continue
		}
		m.exact[i] += u
		if m.scheduled[i] {
			m.raw[i] += u
		}
	}
	if m.inner != nil {
		m.inner.BulkRetire(c)
	} else {
		m.tele.Strides++
		m.tele.StrideInstrs += c.Instrs
	}
}

// Finish closes the final window at the run's final cycle and returns the
// per-event outcome, in request order. It must be called exactly once,
// after the run completes (cpu.Result.Cycles is the final cycle).
func (m *Mux) Finish(finalCycle uint64) []MuxCount {
	if m.finished {
		panic("pmu: Mux.Finish called twice")
	}
	m.finished = true
	m.closeWindow(finalCycle)
	out := make([]MuxCount, len(m.cfg.Events))
	for i, e := range m.cfg.Events {
		c := MuxCount{
			Event:         e,
			Exact:         m.exact[i],
			Raw:           m.raw[i],
			EnabledCycles: finalCycle,
			RunningCycles: m.running[i],
		}
		if c.RunningCycles > 0 {
			c.Scaled = float64(c.Raw) * float64(c.EnabledCycles) / float64(c.RunningCycles)
		}
		out[i] = c
	}
	return out
}

// InjectKernel attributes a stretch of instrs kernel context-switch-path
// instructions to the currently scheduled counters: the raw counts (and
// nothing else) absorb the kernel mix, because the counters are already
// restored while the switch tail retires, but the kernel instructions are
// not part of the tenant program the exact ground truth describes. Every
// injection therefore moves the scaled estimate away from Exact — the
// per-task counting noise the multi-tenant scheduler measures. Running
// time is unaffected: the injection happens at a scheduler deadline,
// which is a fast-path fallback point, and window accounting continues
// from real retirement cycles.
func (m *Mux) InjectKernel(instrs uint64) {
	for i, e := range m.cfg.Events {
		if m.scheduled[i] {
			m.raw[i] += KernelEventUnits(e, instrs)
		}
	}
}

// Repartition re-derives the physical counter budget mid-run, for the
// scheduler's migration mode: a task migrating onto a machine model with
// a different fixed-counter rule gets its events re-placed on the new
// budget at the migration point (a fast-path fallback point, so both
// engines re-place at the same retirement). The rotation offset and all
// accumulated counts survive; only the placement changes.
func (m *Mux) Repartition(genCounters int, fixedFree bool, cycle uint64) {
	if genCounters < 0 {
		genCounters = 0
	}
	if genCounters == 0 && !fixedFree {
		panic("pmu: mux repartitioned to no available counters")
	}
	m.closeWindow(cycle)
	m.cfg.GenCounters = genCounters
	m.cfg.FixedCounterFree = fixedFree
	m.place()
	if !m.contended && m.cfg.Policy == MuxRoundRobin {
		// A shrunken budget can overcommit a list that used to fit; start
		// rotating from here. (A re-grown budget keeps rotating — a
		// rotation over a fitting list schedules everything, harmlessly.)
		for _, s := range m.scheduled {
			if !s {
				m.contended = true
				m.nextRot = cycle + m.cfg.TimesliceCycles
				break
			}
		}
	}
}

// Config returns the active configuration.
func (m *Mux) Config() MuxConfig { return m.cfg }

// Contended reports whether the request list overcommits the counter
// budget under the round-robin policy (i.e. whether the mux rotates).
func (m *Mux) Contended() bool { return m.contended }

var _ cpu.FastMonitor = (*Mux)(nil)
