package pmu_test

// Tests for the virtualized multi-event PMU (counter multiplexing).
// The load-bearing property mirrors bulk_test.go: chopping the same
// retirement stream into any mixture of strides (BulkRetire) and
// per-instruction deliveries (OnRetire) under the FastHeadroom contract
// must produce bit-identical counts, window accounting and rotation
// sequences — that is what makes multiplexed runs engine-independent.

import (
	"fmt"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// muxMenu is the full countable-event menu, in a fixed order.
func muxMenu() []pmu.Event {
	return []pmu.Event{
		pmu.EvInstRetired, pmu.EvUopsRetired, pmu.EvBrTaken, pmu.EvCondBr,
		pmu.EvBrMispred, pmu.EvLoad, pmu.EvStore, pmu.EvFPOp, pmu.EvCall, pmu.EvRet,
	}
}

// muxReplayDirect feeds every event through OnRetire.
func muxReplayDirect(m *pmu.Mux, evs []cpu.RetireEvent) {
	for _, ev := range evs {
		m.OnRetire(ev)
	}
}

// diffCounts compares two complete mux outcomes.
func diffCounts(a, b []pmu.MuxCount) error {
	if len(a) != len(b) {
		return fmt.Errorf("count-list length diverges: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("event %d (%s) diverges:\n  direct %+v\n  bulk   %+v",
				i, a[i].Event, a[i], b[i])
		}
	}
	return nil
}

// TestMuxBulkEquivalence is the stride-chopping property across policies,
// budgets and timeslices.
func TestMuxBulkEquivalence(t *testing.T) {
	evs := synthStream(4000)
	final := evs[len(evs)-1].Cycle

	cases := []struct {
		name string
		cfg  pmu.MuxConfig
	}{
		{
			name: "uncontended-all-fit",
			cfg:  pmu.MuxConfig{Events: muxMenu()[:3], GenCounters: 4, TimesliceCycles: 50},
		},
		{
			name: "contended-rr-short-slice",
			cfg:  pmu.MuxConfig{Events: muxMenu(), GenCounters: 3, TimesliceCycles: 100},
		},
		{
			name: "contended-rr-long-slice",
			cfg:  pmu.MuxConfig{Events: muxMenu(), GenCounters: 3, TimesliceCycles: 1500},
		},
		{
			name: "contended-rr-fixed-counter",
			cfg: pmu.MuxConfig{Events: muxMenu(), GenCounters: 2, FixedCounterFree: true,
				TimesliceCycles: 300},
		},
		{
			name: "contended-priority-starves",
			cfg: pmu.MuxConfig{Events: muxMenu(), GenCounters: 2, Policy: pmu.MuxPriority,
				TimesliceCycles: 100},
		},
		{
			name: "duplicate-events",
			cfg: pmu.MuxConfig{
				Events: []pmu.Event{pmu.EvInstRetired, pmu.EvInstRetired, pmu.EvLoad,
					pmu.EvLoad, pmu.EvBrTaken},
				GenCounters: 2, FixedCounterFree: true, TimesliceCycles: 200},
		},
		{
			name: "single-counter-many-events",
			cfg:  pmu.MuxConfig{Events: muxMenu()[:6], GenCounters: 1, TimesliceCycles: 75},
		},
	}

	for _, tc := range cases {
		for _, chunk := range []int{1, 3, 9, 64, 4000} {
			t.Run(fmt.Sprintf("%s/chunk=%d", tc.name, chunk), func(t *testing.T) {
				direct := pmu.NewMux(tc.cfg, nil)
				muxReplayDirect(direct, evs)
				bulk := pmu.NewMux(tc.cfg, nil)
				replayBulk(bulk, evs, chunk)
				if direct.Rotations != bulk.Rotations {
					t.Fatalf("rotations diverge: direct %d, bulk %d", direct.Rotations, bulk.Rotations)
				}
				if err := diffCounts(direct.Finish(final), bulk.Finish(final)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMuxWrapsSamplingPMU: the stride-chopping property must hold with an
// inner sampling unit too — headroom is the min of both constraints, and
// the inner unit's samples must be unaffected by the wrapping.
func TestMuxWrapsSamplingPMU(t *testing.T) {
	evs := synthStream(4000)
	final := evs[len(evs)-1].Cycle
	pmuCfg := pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 50, Seed: 3}
	muxCfg := pmu.MuxConfig{Events: muxMenu(), GenCounters: 3,
		TimesliceCycles: 120}

	bare := pmu.New(pmuCfg)
	replayDirect(bare, evs)

	inner1 := pmu.New(pmuCfg)
	direct := pmu.NewMux(muxCfg, inner1)
	muxReplayDirect(direct, evs)
	directCounts := direct.Finish(final)

	for _, chunk := range []int{1, 7, 64, 4000} {
		inner2 := pmu.New(pmuCfg)
		bulk := pmu.NewMux(muxCfg, inner2)
		replayBulk(bulk, evs, chunk)
		if err := diffUnits(inner1, inner2); err != nil {
			t.Fatalf("chunk %d: inner PMU diverges: %v", chunk, err)
		}
		if err := diffCounts(directCounts, bulk.Finish(final)); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
	// Wrapping must not change what the sampling unit observes at all.
	if err := diffUnits(bare, inner1); err != nil {
		t.Fatalf("mux wrapping changed the sampling stream: %v", err)
	}
}

// TestMuxExactMatchesEngines: on a real workload under both execution
// engines, the exact counters must equal the hardware-truth Result and
// the full outcome must be engine-independent.
func TestMuxExactMatchesEngines(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.05)
	cfg := machine.IvyBridge().CPU
	muxCfg := pmu.MuxConfig{
		Events:          muxMenu(),
		GenCounters:     3,
		TimesliceCycles: 500,
	}

	mi := pmu.NewMux(muxCfg, nil)
	ri, err := cpu.Run(p, cfg, mi, 0)
	if err != nil {
		t.Fatal(err)
	}
	mf := pmu.NewMux(muxCfg, nil)
	rf, err := cpu.RunFast(p, cfg, mf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ri != rf {
		t.Fatalf("Result diverges: interp %+v fast %+v", ri, rf)
	}
	if mi.Rotations != mf.Rotations {
		t.Fatalf("rotations diverge: interp %d fast %d", mi.Rotations, mf.Rotations)
	}
	ci, cf := mi.Finish(ri.Cycles), mf.Finish(rf.Cycles)
	if err := diffCounts(ci, cf); err != nil {
		t.Fatal(err)
	}
	if mi.Rotations == 0 {
		t.Fatal("contended round-robin mux never rotated")
	}
	// Ground truth against the simulator's own totals.
	want := map[pmu.Event]uint64{
		pmu.EvInstRetired: ri.Instructions,
		pmu.EvUopsRetired: ri.Uops,
		pmu.EvBrTaken:     ri.TakenBranches,
		pmu.EvCondBr:      ri.CondBranches,
		pmu.EvBrMispred:   ri.Mispredicts,
	}
	for _, c := range ci {
		if w, ok := want[c.Event]; ok && c.Exact != w {
			t.Errorf("%s exact = %d, want %d", c.Event, c.Exact, w)
		}
		if c.Raw > c.Exact {
			t.Errorf("%s raw %d exceeds exact %d", c.Event, c.Raw, c.Exact)
		}
		if c.RunningCycles > c.EnabledCycles {
			t.Errorf("%s running %d exceeds enabled %d", c.Event, c.RunningCycles, c.EnabledCycles)
		}
	}
}

// TestMuxUncontended: a request list within the budget never rotates,
// runs every event for the whole run, and scales to the exact count.
func TestMuxUncontended(t *testing.T) {
	evs := synthStream(2000)
	final := evs[len(evs)-1].Cycle
	m := pmu.NewMux(pmu.MuxConfig{
		Events:           []pmu.Event{pmu.EvInstRetired, pmu.EvLoad, pmu.EvBrTaken},
		GenCounters:      2,
		FixedCounterFree: true,
	}, nil)
	if m.Contended() {
		t.Fatal("fitting request list reported contended")
	}
	if g, d := m.FastHeadroom(0); g != 1<<40 || d != cpu.NoDeadline {
		t.Fatalf("uncontended headroom = %d, deadline %d; want unlimited, none", g, d)
	}
	muxReplayDirect(m, evs)
	for _, c := range m.Finish(final) {
		if m.Rotations != 0 {
			t.Fatalf("uncontended mux rotated %d times", m.Rotations)
		}
		if c.RunningCycles != c.EnabledCycles {
			t.Errorf("%s running %d != enabled %d", c.Event, c.RunningCycles, c.EnabledCycles)
		}
		if c.Raw != c.Exact {
			t.Errorf("%s raw %d != exact %d", c.Event, c.Raw, c.Exact)
		}
		if e := c.RelError(); e != 0 {
			t.Errorf("%s relative error = %g, want 0", c.Event, e)
		}
	}
}

// TestMuxPriorityStarvation: under the priority policy the events that
// fit keep exact counts and the overflow events never run.
func TestMuxPriorityStarvation(t *testing.T) {
	evs := synthStream(2000)
	final := evs[len(evs)-1].Cycle
	m := pmu.NewMux(pmu.MuxConfig{
		Events:          []pmu.Event{pmu.EvLoad, pmu.EvStore, pmu.EvBrTaken, pmu.EvCondBr},
		GenCounters:     2,
		Policy:          pmu.MuxPriority,
		TimesliceCycles: 100,
	}, nil)
	if g, d := m.FastHeadroom(0); g != 1<<40 || d != cpu.NoDeadline {
		t.Fatalf("priority policy costs fast-path headroom: %d, deadline %d", g, d)
	}
	muxReplayDirect(m, evs)
	counts := m.Finish(final)
	for i, c := range counts {
		if i < 2 {
			if c.Raw != c.Exact || c.RelError() != 0 {
				t.Errorf("scheduled %s: raw %d exact %d err %g", c.Event, c.Raw, c.Exact, c.RelError())
			}
			continue
		}
		if c.Raw != 0 || c.RunningCycles != 0 || c.Scaled != 0 {
			t.Errorf("starved %s counted: %+v", c.Event, c)
		}
		if c.Exact == 0 {
			t.Errorf("starved %s has no ground truth to compare against", c.Event)
		}
		if e := c.RelError(); e != 1 {
			t.Errorf("starved %s relative error = %g, want 1", c.Event, e)
		}
	}
}

// TestMuxFixedCounterRule: only EvInstRetired can ride the fixed counter.
func TestMuxFixedCounterRule(t *testing.T) {
	evs := synthStream(500)
	final := evs[len(evs)-1].Cycle

	// inst_retired + one general counter's worth of loads: both fit only
	// because inst_retired takes the fixed counter.
	m := pmu.NewMux(pmu.MuxConfig{
		Events:           []pmu.Event{pmu.EvLoad, pmu.EvInstRetired},
		GenCounters:      1,
		FixedCounterFree: true,
	}, nil)
	if m.Contended() {
		t.Fatal("fixed counter not used for inst_retired")
	}
	muxReplayDirect(m, evs)
	for _, c := range m.Finish(final) {
		if c.Raw != c.Exact {
			t.Errorf("%s raw %d != exact %d", c.Event, c.Raw, c.Exact)
		}
	}

	// Two non-inst events with one general counter + a free fixed
	// counter: the fixed counter cannot host them, so the mux rotates.
	m2 := pmu.NewMux(pmu.MuxConfig{
		Events:           []pmu.Event{pmu.EvLoad, pmu.EvStore},
		GenCounters:      1,
		FixedCounterFree: true,
		TimesliceCycles:  100,
	}, nil)
	if !m2.Contended() {
		t.Fatal("fixed counter wrongly hosted a non-inst_retired event")
	}
}

// TestMuxHeadroomNearDeadline pins the deadline contract: the mux grants
// while the engine's horizon is short of the rotation deadline and hands
// the deadline to the engine's fence, refuses with exactly one
// mux_deadline fallback once the horizon reaches it, and re-arms one
// timeslice after the service cycle. Wrapping a sampling unit, the grant
// is the unit's and the deadline the lesser of the two.
func TestMuxHeadroomNearDeadline(t *testing.T) {
	m := pmu.NewMux(pmu.MuxConfig{
		Events:          muxMenu()[:4],
		GenCounters:     1,
		TimesliceCycles: 1000,
	}, nil)
	fallbacks := func() uint64 {
		return m.EngineCounters().Fallbacks[telemetry.FallbackMuxDeadline]
	}
	if g, d := m.FastHeadroom(999); g != 1<<40 || d != 1000 {
		t.Fatalf("horizon 999: grant %d, deadline %d; want unlimited, 1000", g, d)
	}
	if n := fallbacks(); n != 0 {
		t.Fatalf("a grant counted %d mux_deadline fallbacks", n)
	}
	if g, _ := m.FastHeadroom(1000); g != 0 {
		t.Fatalf("horizon at the deadline: grant %d, want 0", g)
	}
	if n := fallbacks(); n != 1 {
		t.Fatalf("one refusal counted %d mux_deadline fallbacks, want 1", n)
	}
	// The first retirement at or past the deadline rotates, and the next
	// deadline is one timeslice after its cycle.
	m.OnRetire(cpu.RetireEvent{Idx: 1, Cycle: 995, Seq: 1, Uops: 1})
	if m.Rotations != 0 {
		t.Fatalf("rotated before the deadline")
	}
	m.OnRetire(cpu.RetireEvent{Idx: 2, Cycle: 1005, Seq: 2, Uops: 1})
	if m.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", m.Rotations)
	}
	if g, d := m.FastHeadroom(1085); g != 1<<40 || d != 2005 {
		t.Fatalf("post-rotation grant %d, deadline %d; want unlimited, 2005", g, d)
	}

	inner := pmu.New(pmu.Config{Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 10, Seed: 1})
	wrapped := pmu.NewMux(pmu.MuxConfig{
		Events:          muxMenu()[:4],
		GenCounters:     1,
		TimesliceCycles: 1000,
	}, inner)
	if g, d := wrapped.FastHeadroom(0); g != 9 || d != 1000 {
		t.Fatalf("wrapped grant %d, deadline %d; want 9, 1000", g, d)
	}
}

// TestMuxValidation pins the constructor and Finish guard rails.
func TestMuxValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		})
	}
	expectPanic("no-events", func() {
		pmu.NewMux(pmu.MuxConfig{GenCounters: 4}, nil)
	})
	expectPanic("no-counters", func() {
		pmu.NewMux(pmu.MuxConfig{Events: muxMenu()[:2]}, nil)
	})
	expectPanic("double-finish", func() {
		m := pmu.NewMux(pmu.MuxConfig{Events: muxMenu()[:2], GenCounters: 4}, nil)
		m.Finish(100)
		m.Finish(100)
	})
}

// TestEventParsing pins the -events flag round trip.
func TestEventParsing(t *testing.T) {
	for e := pmu.Event(0); e < pmu.Event(pmu.NumEvents); e++ {
		got, err := pmu.EventByName(e.String())
		if err != nil || got != e {
			t.Errorf("EventByName(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := pmu.EventByName("cycles"); err == nil {
		t.Error("unknown event accepted")
	}
	list, err := pmu.ParseEventList("inst_retired, load ,br_taken")
	if err != nil || len(list) != 3 || list[1] != pmu.EvLoad {
		t.Errorf("ParseEventList = %v, %v", list, err)
	}
	if s := pmu.EventListString(list); s != "inst_retired,load,br_taken" {
		t.Errorf("EventListString = %q", s)
	}
	if _, err := pmu.ParseEventList("load,nope"); err == nil {
		t.Error("bad list accepted")
	}
	if l, err := pmu.ParseEventList(""); err != nil || l != nil {
		t.Errorf("empty list = %v, %v", l, err)
	}
}
