package pmu_test

// Boundary tests for the bulk-advance (cpu.FastMonitor) API: the PMU's
// FastHeadroom/BulkRetire/OnFastBranch protocol must leave the unit in a
// state indistinguishable from feeding it the same retirement stream one
// OnRetire at a time, no matter how the stream is chopped into strides.
// The cases target the edges the fast engine can get wrong: overflow
// landing exactly on a stride edge, overflow demanded mid-stride, an
// armed PEBS window straddling strides, and HW 4-LSB randomization
// dropping tiny reload values into what would have been a long stride.

import (
	"fmt"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/pmu"
)

// synthStream builds a deterministic synthetic retirement stream: a
// mixture of single-uop ALU ops, multi-uop divs, stores and taken
// branches, with stall/burst cycle patterns (several instructions retiring
// in one cycle, then a gap) so PEBS "later cycle" arming and PMI delivery
// windows get exercised.
func synthStream(n int) []cpu.RetireEvent {
	evs := make([]cpu.RetireEvent, n)
	cycle := uint64(10)
	for i := 0; i < n; i++ {
		op := isa.OpAdd
		uops := uint8(1)
		taken := false
		target := uint32(0)
		switch i % 11 {
		case 3:
			op = isa.OpDiv
			uops = 4
		case 5:
			op = isa.OpStore
			uops = 2
		case 7:
			op = isa.OpJnz
			taken = i%22 == 7
			target = uint32((i * 13) % 97)
		case 9:
			op = isa.OpCall
			uops = 2
			taken = true
			target = uint32((i * 7) % 97)
		case 10:
			op = isa.OpRet
			taken = true
			target = uint32((i * 3) % 97)
		}
		// Burst pattern: groups of up to 4 share a cycle, then the clock
		// jumps (a long-latency shadow every 23 instructions).
		if i%4 == 0 {
			cycle += 2
		}
		if i%23 == 0 {
			cycle += 40
		}
		evs[i] = cpu.RetireEvent{
			Idx:    uint32((i * 5) % 97),
			Cycle:  cycle,
			Seq:    uint64(i + 1),
			Op:     op,
			Uops:   uops,
			Taken:  taken,
			Target: target,
		}
	}
	return evs
}

// synthMaxCycles bounds synthStream's clock advance per event (at most
// ~42 cycles). A replay stride retires one event per step, so it is the
// replays' fence guard.
const synthMaxCycles = 64

// accumulate folds one retirement into a stride's BulkCounts the way the
// fast engine's stride loop does — the replay-side half of the bulk
// contract. The mux tests reuse it to chop synthetic streams.
func accumulate(c *cpu.BulkCounts, ev cpu.RetireEvent) {
	c.Instrs++
	c.Uops += uint64(ev.Uops)
	if ev.Taken {
		c.TakenBranches++
	}
	if ev.Op.IsCondBranch() {
		c.CondBranches++
	}
	if ev.Mispred {
		c.Mispredicts++
	}
	switch {
	case ev.Op == isa.OpLoad:
		c.Loads++
	case ev.Op == isa.OpStore:
		c.Stores++
	case ev.Op.ClassOf() == isa.ClassFP || ev.Op.ClassOf() == isa.ClassFPDiv:
		c.FPOps++
	case ev.Op.IsCall():
		c.Calls++
	case ev.Op.IsRet():
		c.Rets++
	}
}

// replayDirect feeds every event through OnRetire (the interpreter's
// view).
func replayDirect(u *pmu.PMU, evs []cpu.RetireEvent) {
	for _, ev := range evs {
		u.OnRetire(ev)
	}
}

// replayBulk drives the engine protocol the way RunFast does: ask
// FastHeadroom with the horizon (last retirement cycle + guard), take
// strides of at most chunk events through BulkRetire (+ OnFastBranch for
// taken branches when the monitor wants them) that end at the grant or
// at the fence (deadline − guard), and fall back to OnRetire whenever the
// grant is zero.
func replayBulk(m cpu.FastMonitor, evs []cpu.RetireEvent, chunk int) {
	wantBr := m.WantBranches()
	var clock uint64
	i := 0
	for i < len(evs) {
		g, deadline := m.FastHeadroom(clock + synthMaxCycles)
		if g == 0 {
			m.OnRetire(evs[i])
			clock = evs[i].Cycle
			i++
			continue
		}
		fence := deadline - synthMaxCycles
		n := min(g, uint64(chunk), uint64(len(evs)-i))
		var c cpu.BulkCounts
		for ; n > 0 && clock < fence; n-- {
			ev := evs[i]
			accumulate(&c, ev)
			if ev.Taken && wantBr {
				m.OnFastBranch(ev.Idx, ev.Target, ev.Op)
			}
			clock = ev.Cycle
			i++
		}
		m.BulkRetire(c)
	}
}

// diffUnits compares two PMUs' complete observable state.
func diffUnits(a, b *pmu.PMU) error {
	if a.TotalEvents != b.TotalEvents || a.Overflows != b.Overflows || a.DroppedPMIs != b.DroppedPMIs {
		return fmt.Errorf("totals diverge: direct tot=%d ovf=%d drop=%d, bulk tot=%d ovf=%d drop=%d",
			a.TotalEvents, a.Overflows, a.DroppedPMIs, b.TotalEvents, b.Overflows, b.DroppedPMIs)
	}
	sa, sb := a.Samples(), b.Samples()
	if len(sa) != len(sb) {
		return fmt.Errorf("sample count diverges: direct %d, bulk %d", len(sa), len(sb))
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		if x.IP != y.IP || x.TriggerIP != y.TriggerIP || x.Cycle != y.Cycle ||
			x.Seq != y.Seq || x.Period != y.Period || len(x.LBR) != len(y.LBR) {
			return fmt.Errorf("sample %d diverges:\n  direct %+v\n  bulk   %+v", i, x, y)
		}
		for j := range x.LBR {
			if x.LBR[j] != y.LBR[j] {
				return fmt.Errorf("sample %d LBR[%d] diverges: %+v vs %+v", i, j, x.LBR[j], y.LBR[j])
			}
		}
	}
	return nil
}

// TestBulkBoundaries is the table: each case pins one boundary regime and
// replays the same stream both ways under several stride chops.
func TestBulkBoundaries(t *testing.T) {
	cases := []struct {
		name string
		cfg  pmu.Config
	}{
		{
			// Period 10 against chunk 9: with a fresh counter the headroom
			// is exactly 9, so the first stride ends one event before the
			// overflow — the overflow lands exactly on the stride edge and
			// must be taken in event mode.
			name: "overflow-on-stride-edge",
			cfg:  pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 10, Seed: 3},
		},
		{
			// Chunk larger than the period: the replayer keeps asking for
			// 64-event strides but headroom (at most 9) truncates each one
			// mid-chunk; every overflow is forced into event mode.
			name: "overflow-mid-block",
			cfg:  pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 10, Seed: 3},
		},
		{
			// PEBS: overflow arms the facility; the capture window (next
			// eligible event in a strictly later cycle) straddles stride
			// boundaries — headroom must stay 0 while armed.
			name: "armed-pebs-straddles-block",
			cfg:  pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PrecisePEBS, Period: 7, Seed: 5},
		},
		{
			// Imprecise: the pending PMI rides out the skid (plus RNG
			// jitter) across strides; dropped-PMI accounting must match.
			name: "pending-pmi-skid-window",
			cfg:  pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 9, SkidCycles: 30, Seed: 7},
		},
		{
			// AMD IBS with hardware 4-LSB randomization: reload values as
			// small as base&^15 land inside what a naive engine would
			// stride over; uop counting divides headroom by MaxUops.
			name: "hw4lsb-inside-stride",
			cfg:  pmu.Config{Event: pmu.EvUopsRetired, Precision: pmu.PreciseIBS, Period: 17, Rand: pmu.RandHW4LSB, Seed: 11},
		},
		{
			// Taken-branch counting with LBR capture: strides must stream
			// every taken branch into the ring in retirement order.
			name: "brtaken-lbr-stream",
			cfg: pmu.Config{Event: pmu.EvBrTaken, Precision: pmu.Imprecise, Period: 3, SkidCycles: 12,
				CaptureLBR: true, LBRDepth: 4, Seed: 13},
		},
		{
			// LBR contention: call/ret filtering in the shadow ring must
			// see the same branch stream through OnFastBranch.
			name: "lbr-contention-callstack",
			cfg: pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 11,
				CaptureLBR: true, LBRDepth: 8, LBRContention: 0.5, Seed: 17},
		},
		{
			// Frequency mode: every sample retunes the period, so headroom
			// grants shrink and grow with the feedback loop.
			name: "freq-mode-retune",
			cfg: pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 40, SkidCycles: 10,
				FreqMode: true, TargetIntervalCycles: 50, Seed: 19},
		},
	}

	evs := synthStream(4000)
	for _, tc := range cases {
		for _, chunk := range []int{1, 3, 9, 64, 4000} {
			t.Run(fmt.Sprintf("%s/chunk=%d", tc.name, chunk), func(t *testing.T) {
				direct := pmu.New(tc.cfg)
				replayDirect(direct, evs)
				bulk := pmu.New(tc.cfg)
				replayBulk(bulk, evs, chunk)
				if err := diffUnits(direct, bulk); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFastHeadroomValues pins the exact headroom arithmetic.
func TestFastHeadroomValues(t *testing.T) {
	ev := func(uops uint8) cpu.RetireEvent {
		return cpu.RetireEvent{Idx: 1, Cycle: 100, Seq: 1, Op: isa.OpAdd, Uops: uops}
	}
	// grant returns the unit's grant; it counts events, not cycles, so
	// it never has a deadline.
	grant := func(t *testing.T, u *pmu.PMU) uint64 {
		t.Helper()
		g, deadline := u.FastHeadroom(100)
		if deadline != cpu.NoDeadline {
			t.Fatalf("PMU deadline = %d, want none", deadline)
		}
		return g
	}

	t.Run("inst-retired", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 10, Seed: 1})
		if got := grant(t, u); got != 9 {
			t.Fatalf("fresh headroom = %d, want 9", got)
		}
		u.OnRetire(ev(1))
		if got := grant(t, u); got != 8 {
			t.Fatalf("after 1 event headroom = %d, want 8", got)
		}
	})

	t.Run("period-1-never-strides", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 1, Seed: 1})
		if got := grant(t, u); got != 0 {
			t.Fatalf("period-1 headroom = %d, want 0", got)
		}
	})

	t.Run("uops-divided-by-max", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvUopsRetired, Precision: pmu.PreciseIBS, Period: 10, Seed: 1})
		// avail = 9 units; a single instruction can carry isa.MaxUops of
		// them, so only 9/MaxUops instructions are guaranteed safe.
		if got, want := grant(t, u), uint64(9/isa.MaxUops); got != want {
			t.Fatalf("uop headroom = %d, want %d", got, want)
		}
	})

	t.Run("armed-pebs-zero", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PrecisePEBS, Period: 4, Seed: 1})
		for i := 0; i < 4; i++ {
			u.OnRetire(ev(1)) // 4th event overflows and arms
		}
		if got := grant(t, u); got != 0 {
			t.Fatalf("armed headroom = %d, want 0", got)
		}
		// The capture happens at the next eligible event in a later
		// cycle; afterwards the counter sits at 1 of 4, so headroom is
		// 4-1-1 = 2.
		later := ev(1)
		later.Cycle = 200
		later.Seq = 5
		u.OnRetire(later)
		if got := grant(t, u); got != 2 {
			t.Fatalf("post-capture headroom = %d, want 2", got)
		}
		if n := len(u.Samples()); n != 1 {
			t.Fatalf("samples = %d, want 1", n)
		}
	})

	t.Run("pending-pmi-zero", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.Imprecise, Period: 2, SkidCycles: 50, Seed: 1})
		u.OnRetire(ev(1))
		u.OnRetire(ev(1)) // overflow: PMI pending for ~50+jitter cycles
		if got := grant(t, u); got != 0 {
			t.Fatalf("pending-PMI headroom = %d, want 0", got)
		}
	})

	t.Run("bulk-contract-panic", func(t *testing.T) {
		u := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 10, Seed: 1})
		defer func() {
			if recover() == nil {
				t.Fatal("BulkRetire beyond the headroom grant did not panic")
			}
		}()
		u.BulkRetire(cpu.BulkCounts{Instrs: 10, Uops: 10}) // grant was 9
	})
}
