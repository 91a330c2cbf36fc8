package sampling_test

// Telemetry must observe without perturbing: attaching a Sink may not
// change any run observable under either engine, and the counters it
// gathers must account for every retired instruction with fallback
// buckets that sum exactly to the total number of fallback events.

import (
	"fmt"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// TestTelemetryDoesNotPerturb reruns the differential battery with a sink
// attached: EngineBoth diffs the interpreter against the fast engine
// internally, and the run with telemetry must stay bit-identical to the
// run without it.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	specs := workloads.Kernels()
	if testing.Short() {
		specs = specs[:2]
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.Build(0.25)
			sink := &telemetry.Sink{}
			for _, mach := range machine.All() {
				for _, m := range gridMethods() {
					if _, ok := sampling.Resolve(m, mach); !ok {
						continue
					}
					bare, err := sampling.Collect(p, mach, m, sampling.Options{
						PeriodBase: 1000,
						Seed:       42,
						Engine:     sampling.EngineFast,
					})
					if err != nil {
						t.Fatalf("%s/%s/%s bare: %v", spec.Name, mach.Name, m.Key, err)
					}
					// Both engines, sink attached — the differential check
					// runs inside Collect.
					observed, err := sampling.Collect(p, mach, m, sampling.Options{
						PeriodBase: 1000,
						Seed:       42,
						Engine:     sampling.EngineBoth,
						Telemetry:  sink,
					})
					if err != nil {
						t.Fatalf("%s/%s/%s with sink: %v", spec.Name, mach.Name, m.Key, err)
					}
					if err := sampling.DiffRuns(bare, observed); err != nil {
						t.Fatalf("%s/%s/%s: telemetry perturbed the run: %v",
							spec.Name, mach.Name, m.Key, err)
					}
				}
			}
			if err := sink.Snapshot("").Validate(); err != nil {
				t.Fatalf("snapshot after battery: %v", err)
			}
		})
	}
}

// muxEvents8 is an overcommitted counting-event list: eight events on
// any machine's four general counters.
var muxEvents8 = []pmu.Event{
	pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad, pmu.EvStore,
	pmu.EvCondBr, pmu.EvUopsRetired, pmu.EvFPOp, pmu.EvBrMispred,
}

// TestTelemetryAccountsEveryInstruction: for any single run, fast-path
// stride instructions plus event-mode instructions must equal the
// engine's retired-instruction count exactly, the per-variant run count
// must record the run, and the fallback buckets must sum to the total —
// with and without a rotating multiplexer in the monitor chain.
func TestTelemetryAccountsEveryInstruction(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.25)
	for _, mach := range machine.All() {
		for _, m := range gridMethods() {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			for _, c := range []struct {
				eng    sampling.EngineMode
				events []pmu.Event
			}{
				{sampling.EngineFast, nil},
				{sampling.EngineInterp, nil},
				{sampling.EngineFast, muxEvents8},
			} {
				eng := c.eng
				id := fmt.Sprintf("%s/%s/%v/%d-events", mach.Name, m.Key, eng, len(c.events))
				sink := &telemetry.Sink{}
				run, err := sampling.Collect(p, mach, m, sampling.Options{
					PeriodBase:         1000,
					Seed:               7,
					Engine:             eng,
					Telemetry:          sink,
					Events:             c.events,
					MuxTimesliceCycles: 500,
				})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				snap := sink.Snapshot("")
				if err := snap.Validate(); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				e := snap.Engine
				if got := e.StrideInstrs + e.EventInstrs; got != run.CPU.Instructions {
					t.Errorf("%s: telemetry saw %d instructions (stride %d + event %d), run retired %d",
						id, got, e.StrideInstrs, e.EventInstrs, run.CPU.Instructions)
				}
				var runs uint64
				for _, v := range e.Runs {
					runs += v
				}
				if runs != 1 {
					t.Errorf("%s: %d runs recorded, want 1 (%v)", id, runs, e.Runs)
				}
				if eng == sampling.EngineInterp {
					if e.Runs["interp"] != 1 {
						t.Errorf("%s: interp run recorded as %v", id, e.Runs)
					}
					if e.Strides != 0 || e.StrideInstrs != 0 {
						t.Errorf("%s: interpreter run recorded strides: %+v", id, e)
					}
				}
			}
		}
	}
}

// TestMuxStridesPerWindow: the engine strides through a rotation window
// up to its deadline fence, so a multiplexed run needs about one stride
// per rotation and per sampling overflow, not one per handful of
// instructions; every instruction is still accounted once, strided or in
// event mode.
func TestMuxStridesPerWindow(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.25)
	pdir, err := sampling.MethodByKey("pdir+ipfix")
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []uint64{500, 2000, 8000} {
		sink := &telemetry.Sink{}
		run, err := sampling.Collect(p, machine.IvyBridge(), pdir, sampling.Options{
			PeriodBase:         2000,
			Seed:               7,
			Telemetry:          sink,
			Events:             muxEvents8,
			MuxTimesliceCycles: ts,
		})
		if err != nil {
			t.Fatalf("timeslice %d: %v", ts, err)
		}
		e := sink.Snapshot("").Engine
		if bound := run.MuxRotations + run.Overflows + 2; e.Strides > bound {
			t.Errorf("timeslice %d: %d strides, want at most %d (rotations %d + overflows %d + 2)",
				ts, e.Strides, bound, run.MuxRotations, run.Overflows)
		}
		if got := e.StrideInstrs + e.EventInstrs; got != run.CPU.Instructions {
			t.Errorf("timeslice %d: telemetry saw %d instructions (stride %d + event %d), run retired %d",
				ts, got, e.StrideInstrs, e.EventInstrs, run.CPU.Instructions)
		}
	}
}
