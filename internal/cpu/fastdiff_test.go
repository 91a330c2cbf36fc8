package cpu_test

// The differential harness: the fast engine's one non-negotiable contract
// is bit-identical behaviour with the reference interpreter — same Result,
// same monitor-visible stream, same samples, same errors. These tests
// enforce it three ways:
//
//  1. forced event mode: a FastMonitor with zero headroom makes RunFast
//     deliver every RetireEvent through its per-instruction path; the
//     event stream must equal the interpreter's, field for field;
//  2. mixed strides: a monitor with adversarial headroom schedules
//     (including the PMU itself, whose overflow cadence straddles every
//     block shape) must see identical aggregate and sample state;
//  3. fuzz: randomized Builder-DSL programs (internal/program.Random) hunt
//     divergence on programs no human wrote, shrinking to a minimal
//     reproducer on failure.

import (
	"fmt"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// streamRecorder forces event mode (zero headroom) and records the full
// retirement stream.
type streamRecorder struct {
	evs []cpu.RetireEvent
}

func (r *streamRecorder) OnRetire(ev cpu.RetireEvent)             { r.evs = append(r.evs, ev) }
func (r *streamRecorder) FastHeadroom(uint64) (uint64, uint64)    { return 0, cpu.NoDeadline }
func (r *streamRecorder) WantBranches() bool                      { return false }
func (r *streamRecorder) OnFastBranch(from, to uint32, op isa.Op) {}
func (r *streamRecorder) BulkRetire(c cpu.BulkCounts)             {}

// interpRecorder is a plain Monitor (no FastMonitor), used to record the
// interpreter's stream.
type interpRecorder struct {
	evs []cpu.RetireEvent
}

func (r *interpRecorder) OnRetire(ev cpu.RetireEvent) { r.evs = append(r.evs, ev) }

// mixRecorder drives the engine through adversarial stride/event mode
// transitions: headroom grants cycle through a fixed schedule including
// zeros, while aggregate counts from both paths are accumulated.
type mixRecorder struct {
	schedule []uint64
	pos      int
	grants   int
	instrs   uint64 // bulk + event instructions
	uops     uint64
	cond     uint64
	mispred  uint64
	branches uint64
	brStream []uint32 // OnFastBranch froms + event-mode taken froms
}

func (r *mixRecorder) OnRetire(ev cpu.RetireEvent) {
	r.instrs++
	r.uops += uint64(ev.Uops)
	if ev.Mispred {
		r.mispred++
	}
	switch ev.Op {
	case isa.OpJz, isa.OpJnz, isa.OpJlt, isa.OpJge:
		r.cond++
	}
	if ev.Taken {
		r.branches++
		r.brStream = append(r.brStream, ev.Idx)
	}
}

func (r *mixRecorder) FastHeadroom(uint64) (uint64, uint64) {
	h := r.schedule[r.pos%len(r.schedule)]
	r.pos++
	r.grants++
	return h, cpu.NoDeadline
}

func (r *mixRecorder) WantBranches() bool { return true }

func (r *mixRecorder) OnFastBranch(from, to uint32, op isa.Op) {
	r.branches++
	r.brStream = append(r.brStream, from)
}

func (r *mixRecorder) BulkRetire(c cpu.BulkCounts) {
	r.instrs += c.Instrs
	r.uops += c.Uops
	r.cond += c.CondBranches
	r.mispred += c.Mispredicts
}

// diffResults compares the two engines' Result structs.
func diffResults(a, b cpu.Result) error {
	if a != b {
		return fmt.Errorf("Result diverges:\n  interp %+v\n  fast   %+v", a, b)
	}
	return nil
}

// diffErrs compares run errors (nil-ness and text).
func diffErrs(a, b error) error {
	switch {
	case a == nil && b == nil:
		return nil
	case (a == nil) != (b == nil):
		return fmt.Errorf("error divergence: interp err=%v, fast err=%v", a, b)
	case a.Error() != b.Error():
		return fmt.Errorf("error text diverges:\n  interp %q\n  fast   %q", a.Error(), b.Error())
	}
	return nil
}

// diffStreams compares full retirement streams event by event.
func diffStreams(a, b []cpu.RetireEvent) error {
	if len(a) != len(b) {
		return fmt.Errorf("stream length diverges: interp %d, fast %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("event %d diverges:\n  interp %+v\n  fast   %+v", i, a[i], b[i])
		}
	}
	return nil
}

// diffSamples compares PMU sample slices field by field, LBR included.
func diffSamples(a, b []pmu.Sample) error {
	if len(a) != len(b) {
		return fmt.Errorf("sample count diverges: interp %d, fast %d", len(a), len(b))
	}
	for i := range a {
		sa, sb := a[i], b[i]
		if sa.IP != sb.IP || sa.TriggerIP != sb.TriggerIP || sa.Cycle != sb.Cycle ||
			sa.Seq != sb.Seq || sa.Period != sb.Period {
			return fmt.Errorf("sample %d diverges:\n  interp %+v\n  fast   %+v", i, sa, sb)
		}
		if (sa.LBR == nil) != (sb.LBR == nil) || len(sa.LBR) != len(sb.LBR) {
			return fmt.Errorf("sample %d LBR shape diverges: interp %v, fast %v", i, sa.LBR, sb.LBR)
		}
		for j := range sa.LBR {
			if sa.LBR[j] != sb.LBR[j] {
				return fmt.Errorf("sample %d LBR[%d] diverges: interp %+v, fast %+v",
					i, j, sa.LBR[j], sb.LBR[j])
			}
		}
	}
	return nil
}

// diffPMU runs p under both engines with identical PMU configs and
// compares every observable.
func diffPMU(p *program.Program, cpuCfg cpu.Config, pmuCfg pmu.Config, maxInstrs uint64) error {
	ui := pmu.New(pmuCfg)
	ri, erri := cpu.Run(p, cpuCfg, ui, maxInstrs)
	uf := pmu.New(pmuCfg)
	rf, errf := cpu.RunFast(p, cpuCfg, uf, maxInstrs)
	if err := diffErrs(erri, errf); err != nil {
		return err
	}
	if err := diffResults(ri, rf); err != nil {
		return err
	}
	return diffUnits(ui, uf)
}

// diffUnits compares two sampling units' totals and sample streams.
func diffUnits(ui, uf *pmu.PMU) error {
	if ui.Overflows != uf.Overflows || ui.DroppedPMIs != uf.DroppedPMIs || ui.TotalEvents != uf.TotalEvents {
		return fmt.Errorf("PMU totals diverge: interp ovf=%d drop=%d tot=%d, fast ovf=%d drop=%d tot=%d",
			ui.Overflows, ui.DroppedPMIs, ui.TotalEvents, uf.Overflows, uf.DroppedPMIs, uf.TotalEvents)
	}
	return diffSamples(ui.Samples(), uf.Samples())
}

// pmuConfigGrid returns PMU configurations covering every mechanism and
// boundary regime: tiny periods keep the counter permanently near
// overflow, skid windows force event-mode stretches, HW 4-LSB
// randomization lands reload values inside would-be strides, LBR capture
// exercises the branch stream, frequency mode retunes periods at every
// sample.
func pmuConfigGrid(seed uint64) []pmu.Config {
	return []pmu.Config{
		{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 97, SkidCycles: 20, Seed: seed},
		{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 2, SkidCycles: 5, Seed: seed},
		{Event: pmu.EvInstRetired, Precision: pmu.PrecisePEBS, Period: 101, Rand: pmu.RandSoftware, Seed: seed},
		{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 89, CaptureLBR: true, LBRDepth: 8, Seed: seed},
		{Event: pmu.EvUopsRetired, Precision: pmu.PreciseIBS, Period: 64, Rand: pmu.RandHW4LSB, Seed: seed},
		{Event: pmu.EvUopsRetired, Precision: pmu.PreciseIBS, Period: 17, Rand: pmu.RandHW4LSB, Seed: seed},
		{Event: pmu.EvBrTaken, Precision: pmu.Imprecise, Period: 13, SkidCycles: 10,
			CaptureLBR: true, LBRDepth: 4, LBRContention: 0.3, Seed: seed},
		{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 50, SkidCycles: 15,
			FreqMode: true, TargetIntervalCycles: 120, Seed: seed},
		{Event: pmu.EvInstRetired, Precision: pmu.PrecisePEBS, Period: 1, Seed: seed},
	}
}

// muxConfigGrid returns multiplexer configurations covering the regimes
// the fast engine can get wrong: static schedules (no rotation), rotating
// round-robin schedules with timeslices longer and shorter than the
// stride-loop fence's guard, the fixed-counter rule, and the starving
// priority policy.
func muxConfigGrid() []pmu.MuxConfig {
	menu := []pmu.Event{
		pmu.EvInstRetired, pmu.EvUopsRetired, pmu.EvBrTaken, pmu.EvCondBr,
		pmu.EvBrMispred, pmu.EvLoad, pmu.EvStore, pmu.EvFPOp, pmu.EvCall, pmu.EvRet,
	}
	return []pmu.MuxConfig{
		{Events: menu[:3], GenCounters: 4, TimesliceCycles: 200},
		{Events: menu, GenCounters: 3, TimesliceCycles: 120},
		{Events: menu, GenCounters: 2, FixedCounterFree: true, TimesliceCycles: 900},
		{Events: menu, GenCounters: 2, Policy: pmu.MuxPriority, TimesliceCycles: 150},
		{Events: menu[:6], GenCounters: 1, TimesliceCycles: 30},
	}
}

// fenceRecorder grants unlimited instructions under the tightest legal
// deadline, horizon + 1, and records the Seq range and deadline of every
// stride, so each strided retirement can be checked against the
// interpreter's clock. It never refuses, so every instruction retires in
// a stride.
type fenceRecorder struct {
	deadline uint64 // deadline of the last grant
	instrs   uint64
	strides  []fenceStride
}

// fenceStride is one stride: Seq first..last under deadline.
type fenceStride struct{ first, last, deadline uint64 }

func (r *fenceRecorder) OnRetire(ev cpu.RetireEvent)             { r.instrs++ }
func (r *fenceRecorder) WantBranches() bool                      { return false }
func (r *fenceRecorder) OnFastBranch(from, to uint32, op isa.Op) {}

func (r *fenceRecorder) FastHeadroom(horizon uint64) (uint64, uint64) {
	r.deadline = horizon + 1
	return 1 << 40, r.deadline
}

func (r *fenceRecorder) BulkRetire(c cpu.BulkCounts) {
	r.strides = append(r.strides, fenceStride{r.instrs + 1, r.instrs + c.Instrs, r.deadline})
	r.instrs += c.Instrs
}

// diffFence runs p under a fenceRecorder and checks it against the
// interpreter's Result, error and retirement stream evs: every
// instruction retires in some stride, and none at or past the deadline
// in force for its stride.
func diffFence(p *program.Program, cpuCfg cpu.Config, ri cpu.Result, erri error,
	evs []cpu.RetireEvent, maxInstrs uint64) error {
	r := &fenceRecorder{}
	rf, errf := cpu.RunFast(p, cpuCfg, r, maxInstrs)
	if err := diffErrs(erri, errf); err != nil {
		return err
	}
	if err := diffResults(ri, rf); err != nil {
		return err
	}
	if r.instrs != uint64(len(evs)) {
		return fmt.Errorf("strides retired %d instructions, interpreter %d", r.instrs, len(evs))
	}
	for _, s := range r.strides {
		for seq := s.first; seq <= s.last; seq++ {
			if ev := evs[seq-1]; ev.Cycle >= s.deadline {
				return fmt.Errorf("strided retirement Seq %d (%s) at cycle %d, deadline %d",
					seq, ev.Op.Mnemonic(), ev.Cycle, s.deadline)
			}
		}
	}
	return nil
}

// diffMux runs p under both engines with a multiplexed monitor — bare and
// wrapping a sampling PMU — and compares the counting outcome, rotation
// sequence and (when wrapped) the inner sample stream.
func diffMux(p *program.Program, cpuCfg cpu.Config, muxCfg pmu.MuxConfig, maxInstrs uint64) error {
	pmuCfg := pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 173, Seed: 11}
	for _, withInner := range []bool{false, true} {
		var innerI, innerF *pmu.PMU
		var monI, monF cpu.FastMonitor
		if withInner {
			innerI, innerF = pmu.New(pmuCfg), pmu.New(pmuCfg)
			monI, monF = innerI, innerF
		}
		muxI := pmu.NewMux(muxCfg, monI)
		ri, erri := cpu.Run(p, cpuCfg, muxI, maxInstrs)
		muxF := pmu.NewMux(muxCfg, monF)
		rf, errf := cpu.RunFast(p, cpuCfg, muxF, maxInstrs)
		if err := diffErrs(erri, errf); err != nil {
			return fmt.Errorf("inner=%v: %w", withInner, err)
		}
		if err := diffResults(ri, rf); err != nil {
			return fmt.Errorf("inner=%v: %w", withInner, err)
		}
		if err := diffMuxes(muxI, muxF, ri.Cycles); err != nil {
			return fmt.Errorf("inner=%v: %w", withInner, err)
		}
		if withInner {
			if err := diffSamples(innerI.Samples(), innerF.Samples()); err != nil {
				return fmt.Errorf("inner sampling: %w", err)
			}
		}
	}
	return nil
}

// diffMuxes compares two multiplexers' rotation counts and their counting
// outcome at the run's final cycle.
func diffMuxes(muxI, muxF *pmu.Mux, cycles uint64) error {
	if muxI.Rotations != muxF.Rotations {
		return fmt.Errorf("rotations diverge: interp %d, fast %d", muxI.Rotations, muxF.Rotations)
	}
	ci, cf := muxI.Finish(cycles), muxF.Finish(cycles)
	for i := range ci {
		if ci[i] != cf[i] {
			return fmt.Errorf("count %d (%s) diverges:\n  interp %+v\n  fast   %+v",
				i, ci[i].Event, ci[i], cf[i])
		}
	}
	return nil
}

// diffMix checks a mixRecorder's totals against the interpreter's Result
// and its taken-branch stream against the interpreter's retirement
// stream evs: the stream must arrive in retirement order regardless of
// which path delivered each branch.
func diffMix(mr *mixRecorder, ri cpu.Result, erri error, evs []cpu.RetireEvent) error {
	if mr.instrs != ri.Instructions || mr.uops != ri.Uops || mr.branches != ri.TakenBranches ||
		mr.cond != ri.CondBranches || mr.mispred != ri.Mispredicts {
		return fmt.Errorf("monitor totals diverge: instrs %d/%d uops %d/%d branches %d/%d cond %d/%d mispred %d/%d",
			mr.instrs, ri.Instructions, mr.uops, ri.Uops, mr.branches, ri.TakenBranches,
			mr.cond, ri.CondBranches, mr.mispred, ri.Mispredicts)
	}
	want := 0
	for _, ev := range evs {
		if ev.Taken {
			if want >= len(mr.brStream) || mr.brStream[want] != ev.Idx {
				return fmt.Errorf("branch stream diverges at %d", want)
			}
			want++
		}
	}
	if erri == nil && want != len(mr.brStream) {
		return fmt.Errorf("branch stream has %d extra entries", len(mr.brStream)-want)
	}
	return nil
}

// soloRef is the interpreter's run of a diffBroadcast program: what every
// member's own solo interpreter run retires too, since no monitor feeds
// back into execution.
type soloRef struct {
	p    *program.Program
	cfg  cpu.Config
	cap  uint64
	ri   cpu.Result
	erri error
	evs  []cpu.RetireEvent
}

// run runs mon alone under the interpreter.
func (s soloRef) run(mon cpu.Monitor) { cpu.Run(s.p, s.cfg, mon, s.cap) }

// broadcastMember is one member of a diffBroadcast run and the check of
// its outcome against its own solo interpreter run.
type broadcastMember struct {
	mon   cpu.FastMonitor
	check func(s soloRef) error
}

// pmuMember is a sampling unit: totals and samples must match.
func pmuMember(cfg pmu.Config) broadcastMember {
	u := pmu.New(cfg)
	return broadcastMember{u, func(s soloRef) error {
		solo := pmu.New(cfg)
		s.run(solo)
		return diffUnits(solo, u)
	}}
}

// exactMember is a sampling unit with no cycle deadline, which the
// broadcast keeps member-exact: its samples must match its solo
// interpreter run's, and its engine counters its solo RunFast run's.
func exactMember(cfg pmu.Config) broadcastMember {
	u := pmu.New(cfg)
	return broadcastMember{u, func(s soloRef) error {
		solo := pmu.New(cfg)
		s.run(solo)
		if err := diffUnits(solo, u); err != nil {
			return err
		}
		fast := pmu.New(cfg)
		cpu.RunFast(s.p, s.cfg, fast, s.cap)
		if got, want := *u.EngineCounters(), *fast.EngineCounters(); got != want {
			return fmt.Errorf("engine counters diverge from the solo fast run's:\n  solo   %+v\n  shared %+v", want, got)
		}
		return nil
	}}
}

// muxMember is a multiplexer, bare or over a sampling unit: rotations,
// counts and the inner samples must match.
func muxMember(cfg pmu.MuxConfig, inner *pmu.Config) broadcastMember {
	build := func() (*pmu.Mux, *pmu.PMU) {
		if inner == nil {
			return pmu.NewMux(cfg, nil), nil
		}
		u := pmu.New(*inner)
		return pmu.NewMux(cfg, u), u
	}
	mux, unit := build()
	return broadcastMember{mux, func(s soloRef) error {
		soloMux, soloUnit := build()
		s.run(soloMux)
		if err := diffMuxes(soloMux, mux, s.ri.Cycles); err != nil || unit == nil {
			return err
		}
		return diffUnits(soloUnit, unit)
	}}
}

// mixMember is an adversarial stride schedule: totals and branch-stream
// order must match the interpreter's.
func mixMember(schedule []uint64) broadcastMember {
	mr := &mixRecorder{schedule: schedule}
	return broadcastMember{mr, func(s soloRef) error { return diffMix(mr, s.ri, s.erri, s.evs) }}
}

// diffBroadcast runs p once under RunFast with one cpu.Broadcast over
// members and checks every member against its own solo interpreter run:
// members sharing an execution must each observe it exactly as alone.
func diffBroadcast(p *program.Program, cpuCfg cpu.Config, cap uint64, members []broadcastMember) error {
	mons := make([]cpu.FastMonitor, len(members))
	for i, m := range members {
		mons[i] = m.mon
	}
	rf, errf := cpu.RunFast(p, cpuCfg, cpu.NewBroadcast(mons), cap)
	ir := &interpRecorder{}
	ri, erri := cpu.Run(p, cpuCfg, ir, cap)
	if err := diffErrs(erri, errf); err != nil {
		return err
	}
	if err := diffResults(ri, rf); err != nil {
		return err
	}
	ref := soloRef{p, cpuCfg, cap, ri, erri, ir.evs}
	for i, m := range members {
		if err := m.check(ref); err != nil {
			return fmt.Errorf("member %d (%T): %w", i, m.mon, err)
		}
	}
	return nil
}

// diffProgram runs the whole differential battery on one program; returns
// a description of the first divergence, or "".
//
// The stream-recording and tiny-period sections run under a tighter
// instruction cap than the PMU sections: they materialize per-instruction
// (or per-period-of-2) state in memory, and a capped prefix diff catches
// the same divergences — both engines always run under the same cap, so
// the comparison stays exact.
func diffProgram(p *program.Program, maxInstrs uint64) string {
	cpuCfg := cpu.DefaultConfig()
	streamCap := maxInstrs
	if streamCap == 0 || streamCap > 150_000 {
		streamCap = 150_000
	}

	// Forced event mode: full stream equality.
	ir := &interpRecorder{}
	ri, erri := cpu.Run(p, cpuCfg, ir, streamCap)
	sr := &streamRecorder{}
	rf, errf := cpu.RunFast(p, cpuCfg, sr, streamCap)
	if err := diffErrs(erri, errf); err != nil {
		return "forced event mode: " + err.Error()
	}
	if err := diffResults(ri, rf); err != nil {
		return "forced event mode: " + err.Error()
	}
	if err := diffStreams(ir.evs, sr.evs); err != nil {
		return "forced event mode: " + err.Error()
	}

	// Adversarial stride schedules: aggregate equality.
	for _, schedule := range [][]uint64{
		{1 << 40},
		{1, 0, 2, 0, 3, 7},
		{0, 0, 5, 1, 0, 1000},
		{2, 2, 2, 0},
	} {
		mr := &mixRecorder{schedule: schedule}
		rm, errm := cpu.RunFast(p, cpuCfg, mr, streamCap)
		if err := diffErrs(erri, errm); err != nil {
			return fmt.Sprintf("mix schedule %v: %v", schedule, err)
		}
		if err := diffResults(ri, rm); err != nil {
			return fmt.Sprintf("mix schedule %v: %v", schedule, err)
		}
		if err := diffMix(mr, ri, erri, ir.evs); err != nil {
			return fmt.Sprintf("mix schedule %v: %v", schedule, err)
		}
	}

	// Deadline fence: no strided retirement reaches a deadline, even the
	// tightest one a monitor may set.
	if err := diffFence(p, cpuCfg, ri, erri, ir.evs, streamCap); err != nil {
		return "deadline fence: " + err.Error()
	}

	// NopMonitor: one unbounded grant and no monitor observables, but its
	// Result and error must still be bit-identical.
	rn, errn := cpu.RunFast(p, cpuCfg, cpu.NopMonitor{}, streamCap)
	if err := diffErrs(erri, errn); err != nil {
		return "NopMonitor: " + err.Error()
	}
	if err := diffResults(ri, rn); err != nil {
		return "NopMonitor: " + err.Error()
	}

	// PMU configurations: sample-stream equality. Tiny periods sample
	// every few instructions — cap those runs so the sample slices stay
	// small; long-period configs get the full run.
	for ci, pmuCfg := range pmuConfigGrid(7) {
		cap := maxInstrs
		if pmuCfg.Period < 32 && (cap == 0 || cap > 30_000) {
			cap = 30_000
		}
		if err := diffPMU(p, cpuCfg, pmuCfg, cap); err != nil {
			return fmt.Sprintf("pmu config %d (%s/%s): %v", ci, pmuCfg.Event, pmuCfg.Precision, err)
		}
	}

	// Multiplexed counting: rotation deadlines are fast-path fallback
	// points, and the per-event counts, window accounting and rotation
	// sequence must be engine-independent, bare and wrapped around a
	// sampling unit. Contended configurations interpret a slice of every
	// rotation window, so cap the run length like the tiny-period PMU
	// section does.
	for mi, muxCfg := range muxConfigGrid() {
		cap := maxInstrs
		if cap == 0 || cap > 200_000 {
			cap = 200_000
		}
		if err := diffMux(p, cpuCfg, muxCfg, cap); err != nil {
			return fmt.Sprintf("mux config %d: %v", mi, err)
		}
	}

	// Broadcast: members sharing one execution each observe it exactly
	// as they would alone. The first set is every PMU of the grid, a mux
	// over a PMU and a stride schedule; its tiny periods keep it mostly in
	// event mode, so it takes their cap. The second set grants long
	// strides under rotation deadlines that all differ, so every member's
	// deadline must end strides and both LBR members need the branch
	// stream.
	cap := maxInstrs
	if cap == 0 || cap > 30_000 {
		cap = 30_000
	}
	inner := pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 173, Seed: 11}
	muxes := muxConfigGrid()
	var grid []broadcastMember
	for _, c := range pmuConfigGrid(7) {
		grid = append(grid, pmuMember(c))
	}
	grid = append(grid, muxMember(muxes[1], &inner), mixMember([]uint64{5, 0, 1000, 1 << 40, 0, 1}))
	if err := diffBroadcast(p, cpuCfg, cap, grid); err != nil {
		return "broadcast (grid): " + err.Error()
	}
	strides := []broadcastMember{
		mixMember([]uint64{1 << 40}),
		pmuMember(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 2003, SkidCycles: 20, Seed: 5}),
		muxMember(muxes[2], nil), muxMember(muxes[1], &inner), muxMember(muxes[3], nil),
		pmuMember(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 1009,
			CaptureLBR: true, LBRDepth: 8, Seed: 3}),
	}
	if err := diffBroadcast(p, cpuCfg, cap, strides); err != nil {
		return "broadcast (strides): " + err.Error()
	}
	// The third set's grants differ by orders of magnitude: period-1
	// units, which keep the execution in event mode, beside period-10⁶
	// units, which stride through it, each with and without LBR. No
	// member has a deadline, so each is held to its solo engine counters
	// too.
	exact := []broadcastMember{
		exactMember(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 1, SkidCycles: 5, Seed: 1}),
		exactMember(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 1_000_000,
			CaptureLBR: true, LBRDepth: 8, Seed: 2}),
		exactMember(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PrecisePEBS, Period: 1,
			CaptureLBR: true, LBRDepth: 4, Seed: 3}),
		exactMember(pmu.Config{Event: pmu.EvUopsRetired, Precision: pmu.Imprecise, Period: 1_000_000, SkidCycles: 20, Seed: 4}),
	}
	if err := diffBroadcast(p, cpuCfg, cap, exact); err != nil {
		return "broadcast (member-exact): " + err.Error()
	}
	return ""
}

// TestEnginesMatchOnWorkloads diffs both engines across the real workload
// set (kernels and, outside -short, applications).
func TestEnginesMatchOnWorkloads(t *testing.T) {
	specs := workloads.Kernels()
	if !testing.Short() {
		specs = append(specs, workloads.Apps()...)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.Build(0.1)
			if msg := diffProgram(p, 0); msg != "" {
				t.Fatalf("%s: %s", spec.Name, msg)
			}
		})
	}
}

// TestEnginesMatchMaxInstrs: the instruction limit must cut both engines
// at the same instruction with the same error — a fast-path stride must
// not overshoot the budget.
func TestEnginesMatchMaxInstrs(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.1)
	for _, limit := range []uint64{1, 2, 7, 100, 1001, 99_999} {
		ir := &interpRecorder{}
		ri, erri := cpu.Run(p, cpu.DefaultConfig(), ir, limit)
		sr := &streamRecorder{}
		rf, errf := cpu.RunFast(p, cpu.DefaultConfig(), sr, limit)
		if err := diffErrs(erri, errf); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if err := diffResults(ri, rf); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if ri.Instructions != limit {
			t.Fatalf("limit %d: interpreter retired %d", limit, ri.Instructions)
		}
		// A striding monitor must also see exactly the limit.
		mr := &mixRecorder{schedule: []uint64{1 << 40}}
		if _, err := cpu.RunFast(p, cpu.DefaultConfig(), mr, limit); err != cpu.ErrInstrLimit {
			t.Fatalf("limit %d: fast stride err = %v", limit, err)
		}
		if mr.instrs != limit {
			t.Fatalf("limit %d: fast stride retired %d", limit, mr.instrs)
		}
	}
}

// TestEnginesMatchRunErrors: engine errors (call stack overflow, empty
// ret) carry identical text and partial Results on every path: event
// mode, and a stride with the branch stream (mixRecorder) and without it
// (NopMonitor's single grant).
func TestEnginesMatchRunErrors(t *testing.T) {
	deep := program.NewBuilder("deep")
	main := deep.Func("main")
	main.Block("body").Call("f")
	main.Block("exit").Halt()
	f := deep.Func("f")
	f.Block("body").Call("f") // unbounded recursion
	f.Block("exit").Ret()
	empty := program.NewBuilder("empty")
	entry := empty.Func("main")
	entry.Block("body").Movi(1, 1).Ret() // nothing to return to
	entry.Block("exit").Halt()
	cfg := cpu.DefaultConfig()
	cfg.MaxCallDepth = 16
	for _, b := range []*program.Builder{deep, empty} {
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ri, erri := cpu.Run(p, cfg, &interpRecorder{}, 0)
		if erri == nil {
			t.Fatalf("%s: expected an interpreter error", p.Name)
		}
		for _, mon := range []cpu.Monitor{
			&streamRecorder{},
			&mixRecorder{schedule: []uint64{1 << 40}},
			cpu.NopMonitor{},
		} {
			rf, errf := cpu.RunFast(p, cfg, mon, 0)
			if err := diffErrs(erri, errf); err != nil {
				t.Fatalf("%s under %T: %v", p.Name, mon, err)
			}
			if err := diffResults(ri, rf); err != nil {
				t.Fatalf("%s under %T: %v", p.Name, mon, err)
			}
		}
	}
}

// TestEnginesMatchDeadlineFence: a loop of dependent fused fdiv pairs
// advances the clock by two full fdiv latencies in one stride-loop
// iteration — the case that sizes the fence guard at two per-instruction
// bounds. Under the tightest legal deadline no strided retirement may
// reach it, on every machine's timing model.
func TestEnginesMatchDeadlineFence(t *testing.T) {
	b := program.NewBuilder("fdiv-pairs")
	main := b.Func("main")
	main.Block("entry").Movi(1, 1<<40).Movi(2, 3).Movi(3, 0).Movi(4, 300)
	main.Block("loop").Fdiv(1, 1, 2).Fdiv(1, 1, 2).Addi(3, 3, 1).Cmp(3, 4).Jlt("loop")
	main.Block("exit").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []cpu.Config{
		cpu.DefaultConfig(), machine.MagnyCours().CPU, machine.Westmere().CPU, machine.IvyBridge().CPU,
	} {
		ir := &interpRecorder{}
		ri, erri := cpu.Run(p, cfg, ir, 0)
		if erri != nil {
			t.Fatal(erri)
		}
		if err := diffFence(p, cfg, ri, erri, ir.evs, 0); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

// pastDeadlineMonitor breaks the FastHeadroom contract: it grants
// instructions under a deadline the horizon has already reached.
type pastDeadlineMonitor struct{ bulkRecorder }

func (m *pastDeadlineMonitor) FastHeadroom(horizon uint64) (uint64, uint64) { return 1, horizon }

// TestFenceContractViolationPanics: such a grant leaves the stride loop
// no legal instruction to retire; the engine must panic rather than spin
// or stride past the deadline.
func TestFenceContractViolationPanics(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("a grant with deadline ≤ horizon did not panic")
		}
	}()
	cpu.RunFast(p, cpu.DefaultConfig(), &pastDeadlineMonitor{}, 100)
}

// fuzzCount returns the number of fuzzed programs for the default run.
func fuzzCount() int {
	if testing.Short() {
		return 150
	}
	return 1000
}

// TestFuzzEngineEquivalence is the randomized differential property test:
// generated programs, full battery, shrink on failure.
func TestFuzzEngineEquivalence(t *testing.T) {
	cfg := program.DefaultGenConfig()
	const maxInstrs = 5_000_000 // safety net; both engines must agree even if hit
	n := fuzzCount()
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := program.Random(seed, cfg)
		msg := diffProgram(p, maxInstrs)
		if msg == "" {
			continue
		}
		min := cfg.Shrink(func(c program.GenConfig) bool {
			return diffProgram(program.Random(seed, c), maxInstrs) != ""
		})
		minMsg := diffProgram(program.Random(seed, min), maxInstrs)
		t.Fatalf("engine divergence at seed %d\n  original cfg %+v: %s\n  minimal cfg %+v: %s\n  minimal program (%d instrs):\n%s",
			seed, cfg, msg, min, minMsg,
			program.Random(seed, min).NumInstrs(), disasmProgram(program.Random(seed, min)))
	}
}

// TestDiffBatteryCoversAllVariants pins the path RunFast takes for every
// monitor shape the differential battery drives: the fuzz battery only
// proves what it covers, so the covered set must provably span the
// stride loop and the interpreter fallback. If a rule changes and
// silently reroutes a battery monitor to the interpreter, this test
// fails before the coverage gap can hide.
func TestDiffBatteryCoversAllVariants(t *testing.T) {
	type entry struct {
		name string
		mon  cpu.Monitor
		want telemetry.Variant
	}
	entries := []entry{
		{"interpRecorder", &interpRecorder{}, telemetry.VariantInterp},
		{"streamRecorder", &streamRecorder{}, telemetry.VariantFull},
		{"mixRecorder", &mixRecorder{schedule: []uint64{1}}, telemetry.VariantFull},
		{"fenceRecorder", &fenceRecorder{}, telemetry.VariantFull},
		{"NopMonitor", cpu.NopMonitor{}, telemetry.VariantFull},
		{"Broadcast", cpu.NewBroadcast([]cpu.FastMonitor{&mixRecorder{}, cpu.NopMonitor{}}), telemetry.VariantFull},
	}
	// Every PMU and mux configuration of the grids takes the stride loop,
	// with and without the LBR branch stream.
	for i, cfg := range pmuConfigGrid(7) {
		entries = append(entries, entry{fmt.Sprintf("pmu[%d]", i), pmu.New(cfg), telemetry.VariantFull})
	}
	for i, cfg := range muxConfigGrid() {
		entries = append(entries, entry{fmt.Sprintf("mux[%d]", i), pmu.NewMux(cfg, nil), telemetry.VariantFull})
	}
	covered := map[telemetry.Variant]bool{}
	for _, e := range entries {
		// RunFast's dispatch rule: the stride loop for a FastMonitor, the
		// interpreter for any other monitor.
		got := telemetry.VariantInterp
		if _, ok := e.mon.(cpu.FastMonitor); ok {
			got = telemetry.VariantFull
		}
		if got != e.want {
			t.Errorf("%s: takes %v, want %v", e.name, got, e.want)
		}
		covered[got] = true
	}
	for _, v := range []telemetry.Variant{telemetry.VariantInterp, telemetry.VariantFull} {
		if !covered[v] {
			t.Errorf("differential battery covers no %v monitor", v)
		}
	}
}

// bulkRecorder sums every BulkCounts field it is handed. Its unlimited
// headroom keeps a halting run in stride mode end to end.
type bulkRecorder struct {
	sum cpu.BulkCounts
}

func (r *bulkRecorder) OnRetire(ev cpu.RetireEvent)             {}
func (r *bulkRecorder) FastHeadroom(uint64) (uint64, uint64)    { return 1 << 40, cpu.NoDeadline }
func (r *bulkRecorder) WantBranches() bool                      { return false }
func (r *bulkRecorder) OnFastBranch(from, to uint32, op isa.Op) {}

func (r *bulkRecorder) BulkRetire(c cpu.BulkCounts) {
	r.sum.Instrs += c.Instrs
	r.sum.Uops += c.Uops
	r.sum.TakenBranches += c.TakenBranches
	r.sum.CondBranches += c.CondBranches
	r.sum.Mispredicts += c.Mispredicts
	r.sum.Loads += c.Loads
	r.sum.Stores += c.Stores
	r.sum.FPOps += c.FPOps
	r.sum.Calls += c.Calls
	r.sum.Rets += c.Rets
}

// TestBulkCountsMatchInterp: a single stride's BulkCounts carry every
// class, not only the Result-shaped ones the Result comparison sees. The
// program retires loads, stores, FP ops, calls and returns both as plain
// instructions and inside fused pairs, with register and immediate
// compares (fused forms the -short fuzz battery rarely builds), and
// passes the whole differential battery first; a monitor summing every
// BulkCounts field must then see the interpreter's totals.
func TestBulkCountsMatchInterp(t *testing.T) {
	b := program.NewBuilder("classes")
	b.SetMemWords(64)
	main := b.Func("main")
	main.Block("entry").Movi(1, 0).Movi(2, 3).Movi(10, 50)
	main.Block("loop").Call("work")
	main.Block("next").Addi(1, 1, 1).Cmp(1, 10).Jlt("loop")
	main.Block("exit").Halt()
	work := b.Func("work")
	work.Block("body").
		Load(3, 1, 0).Fadd(4, 3, 2). // fused pair heads and glued halves
		Store(4, 1, 8).Fmul(5, 4, 2).
		Fma(6, 5, 4).Fdiv(7, 6, 2).
		Load(8, 1, 16).Cmp(8, 2). // plain, unfused instructions
		Store(8, 1, 24).Cmpi(8, 1).
		Fadd(9, 8, 2).Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffProgram(p, 0); msg != "" {
		t.Fatal(msg)
	}
	cfg := cpu.DefaultConfig()
	ir := &interpRecorder{}
	ri, err := cpu.RunEngine(p, cfg, ir, 0, cpu.EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	want := cpu.BulkCounts{
		Instrs: ri.Instructions, Uops: ri.Uops, TakenBranches: ri.TakenBranches,
		CondBranches: ri.CondBranches, Mispredicts: ri.Mispredicts,
	}
	for _, ev := range ir.evs {
		switch ev.Op {
		case isa.OpLoad:
			want.Loads++
		case isa.OpStore:
			want.Stores++
		case isa.OpFadd, isa.OpFmul, isa.OpFdiv, isa.OpFma:
			want.FPOps++
		case isa.OpCall:
			want.Calls++
		case isa.OpRet:
			want.Rets++
		}
	}
	if want.Loads == 0 || want.Stores == 0 || want.FPOps == 0 || want.Calls == 0 || want.Rets == 0 {
		t.Fatalf("program misses a non-Result class: %+v", want)
	}
	r := &bulkRecorder{}
	rf, err := cpu.RunEngine(p, cfg, r, 0, cpu.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffResults(ri, rf); err != nil {
		t.Fatal(err)
	}
	if r.sum != want {
		t.Errorf("bulk totals\n  got  %+v\n  want %+v", r.sum, want)
	}
}

// disasmProgram renders a small program for failure reports.
func disasmProgram(p *program.Program) string {
	out := ""
	for i := range p.Code {
		out += fmt.Sprintf("  %4d: %s\n", i, p.Code[i].Disasm())
		if i > 400 {
			out += "  ... (truncated)\n"
			break
		}
	}
	return out
}
