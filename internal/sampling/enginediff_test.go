package sampling_test

// Grid-level engine equivalence: every (workload × machine × method) cell
// of the reproduction must produce bit-identical Runs — samples, LBR
// contents, counters, cpu.Result — under the interpreter and the fast
// engine. EngineBoth performs the diff internally and fails the collection
// on any divergence, so the assertion here is simply that collection
// succeeds.

import (
	"errors"
	"slices"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// gridMethods returns Table 3 plus the frequency-mode variant.
func gridMethods() []sampling.Method {
	return append(sampling.Registry(), sampling.FreqMode())
}

// TestEngineGridBitIdentical sweeps the small-scale grid under EngineBoth.
func TestEngineGridBitIdentical(t *testing.T) {
	specs := workloads.Kernels()
	if !testing.Short() {
		specs = append(specs, workloads.Apps()...)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.Build(0.25)
			for _, mach := range machine.All() {
				for _, m := range gridMethods() {
					if _, ok := sampling.Resolve(m, mach); !ok {
						continue
					}
					_, err := sampling.Collect(p, mach, m, sampling.Options{
						PeriodBase: 1000,
						Seed:       42,
						Engine:     sampling.EngineBoth,
					})
					if err != nil {
						t.Errorf("%s/%s/%s: %v", spec.Name, mach.Name, m.Key, err)
					}
				}
			}
		})
	}
}

// TestEngineGridFuzzPrograms runs EngineBoth over randomized programs too:
// the workload grid only covers shapes humans wrote.
func TestEngineGridFuzzPrograms(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 15
	}
	cfg := program.DefaultGenConfig()
	mach := machine.IvyBridge()
	for seed := uint64(0); seed < n; seed++ {
		p := program.Random(seed, cfg)
		for _, m := range gridMethods() {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			_, err := sampling.Collect(p, mach, m, sampling.Options{
				PeriodBase: 200,
				Seed:       seed,
				Engine:     sampling.EngineBoth,
			})
			if err != nil {
				t.Fatalf("seed %d method %s: %v", seed, m.Key, err)
			}
		}
	}
}

// muxGrid returns the event-list configurations the multiplexed engine
// equivalence sweeps run: within-budget, overcommitted round-robin at two
// timeslices, and the starving priority policy.
func muxGrid() []struct {
	Name      string
	Events    []pmu.Event
	Timeslice uint64
	Policy    pmu.MuxPolicy
} {
	menu := []pmu.Event{
		pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad, pmu.EvStore, pmu.EvCondBr,
		pmu.EvUopsRetired, pmu.EvFPOp, pmu.EvBrMispred, pmu.EvCall, pmu.EvRet,
	}
	return []struct {
		Name      string
		Events    []pmu.Event
		Timeslice uint64
		Policy    pmu.MuxPolicy
	}{
		{"fits", menu[:3], 0, pmu.MuxRoundRobin},
		{"rr-n6", menu[:6], 0, pmu.MuxRoundRobin},
		{"rr-n10-short-slice", menu, 500, pmu.MuxRoundRobin},
		{"priority-n8", menu[:8], 0, pmu.MuxPriority},
	}
}

// TestEngineMuxGridBitIdentical: multiplexed collections — samples AND
// scaled counts — must be bit-identical between the engines over the
// event-list grid on every machine (the EngineBoth path diffs Counts and
// MuxRotations through DiffRuns).
func TestEngineMuxGridBitIdentical(t *testing.T) {
	specs := workloads.Kernels()
	if testing.Short() {
		specs = specs[:2]
	}
	classic, err := sampling.MethodByKey("classic")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := spec.Build(0.25)
			for _, mach := range machine.All() {
				for _, mc := range muxGrid() {
					run, err := sampling.Collect(p, mach, classic, sampling.Options{
						PeriodBase:         1000,
						Seed:               42,
						Engine:             sampling.EngineBoth,
						Events:             mc.Events,
						MuxTimesliceCycles: mc.Timeslice,
						MuxPolicy:          mc.Policy,
					})
					if err != nil {
						t.Errorf("%s/%s/%s: %v", spec.Name, mach.Name, mc.Name, err)
						continue
					}
					if len(run.Counts) != len(mc.Events) {
						t.Errorf("%s/%s/%s: %d counts for %d events",
							spec.Name, mach.Name, mc.Name, len(run.Counts), len(mc.Events))
					}
				}
			}
		})
	}
}

// TestCollectMaxInstrs is the fast-path stride-overshoot regression: with
// a MaxInstrs bound, both engines must cut the run at exactly the same
// instruction with the same wrapped cpu.ErrInstrLimit — a stride must
// never run past the budget before the limit is noticed.
func TestCollectMaxInstrs(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.25)
	mach := machine.IvyBridge()
	m, err := sampling.MethodByKey("classic")
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []uint64{1, 500, 12_345} {
		var errs [2]error
		for i, eng := range []sampling.EngineMode{sampling.EngineInterp, sampling.EngineFast} {
			_, err := sampling.Collect(p, mach, m, sampling.Options{
				PeriodBase: 100,
				Seed:       1,
				MaxInstrs:  limit,
				Engine:     eng,
			})
			if !errors.Is(err, cpu.ErrInstrLimit) {
				t.Fatalf("limit %d engine %s: err = %v, want ErrInstrLimit", limit, eng, err)
			}
			errs[i] = err
		}
		if errs[0].Error() != errs[1].Error() {
			t.Fatalf("limit %d: error text diverges:\n  interp %q\n  fast   %q",
				limit, errs[0], errs[1])
		}
		// EngineBoth agrees with itself on limited runs too (identical
		// errors are not a divergence).
		_, err := sampling.Collect(p, mach, m, sampling.Options{
			PeriodBase: 100, Seed: 1, MaxInstrs: limit, Engine: sampling.EngineBoth,
		})
		if !errors.Is(err, cpu.ErrInstrLimit) {
			t.Fatalf("limit %d engine both: err = %v, want ErrInstrLimit", limit, err)
		}
	}
}

// TestDiffOutcome pins the comparison protocol of every EngineBoth
// self-check (CollectCell's and each scheduled tenant's): error-parity
// mismatches and error-text mismatches are divergences, and runs that
// failed with identical errors still have their partial streams diffed.
func TestDiffOutcome(t *testing.T) {
	mkRun := func(samples int) *sampling.Run {
		r := &sampling.Run{CPU: cpu.Result{Instructions: 10, Cycles: 20}}
		for i := 0; i < samples; i++ {
			r.Samples = append(r.Samples, pmuSample(uint32(i)))
		}
		return r
	}
	limitErr := errors.New("limit hit")

	if err := sampling.DiffOutcome(mkRun(2), nil, mkRun(2), nil); err != nil {
		t.Errorf("identical successful runs: %v", err)
	}
	if err := sampling.DiffOutcome(mkRun(2), limitErr, mkRun(2), nil); err == nil {
		t.Error("error-parity mismatch not reported")
	}
	if err := sampling.DiffOutcome(mkRun(2), limitErr, mkRun(2), errors.New("other")); err == nil {
		t.Error("error-text mismatch not reported")
	}
	if err := sampling.DiffOutcome(mkRun(2), limitErr, mkRun(2), errors.New("limit hit")); err != nil {
		t.Errorf("identically failing identical runs: %v", err)
	}
	// The regression the helper exists for: identical errors must not
	// mask a divergent partial stream.
	if err := sampling.DiffOutcome(mkRun(2), limitErr, mkRun(3), errors.New("limit hit")); err == nil {
		t.Error("divergent partial streams behind identical errors not reported")
	}
}

// TestRunEngines pins the engine-mode helper: the engines each mode runs,
// in order (the interpreter, the reference, first), and under EngineBoth
// that a divergence fails the call with the zero value while an outcome
// both engines agree on, failures included, is the fast engine's.
func TestRunEngines(t *testing.T) {
	diverged, runErr := errors.New("diverged"), errors.New("limit hit")
	interp, fast := cpu.EngineInterp, cpu.EngineFast
	for _, tc := range []struct {
		mode    sampling.EngineMode
		runErr  error
		diff    error
		ran     []cpu.Engine
		want    int
		wantErr error
	}{
		{sampling.EngineFast, nil, nil, []cpu.Engine{fast}, 1, nil},
		{sampling.EngineInterp, nil, nil, []cpu.Engine{interp}, 1, nil},
		{sampling.EngineBoth, nil, nil, []cpu.Engine{interp, fast}, 2, nil},
		{sampling.EngineBoth, runErr, nil, []cpu.Engine{interp, fast}, 2, runErr},
		{sampling.EngineBoth, nil, diverged, []cpu.Engine{interp, fast}, 0, diverged},
	} {
		var ran []cpu.Engine
		got, err := sampling.RunEngines(tc.mode, func(eng cpu.Engine) (int, error) {
			ran = append(ran, eng)
			return len(ran), tc.runErr
		}, func(ref int, refErr error, got int, gotErr error) error {
			if ref != 1 || got != 2 || refErr != tc.runErr || gotErr != tc.runErr {
				t.Errorf("%s: diff saw (%d, %v) vs (%d, %v)", tc.mode, ref, refErr, got, gotErr)
			}
			return tc.diff
		})
		if got != tc.want || err != tc.wantErr || !slices.Equal(ran, tc.ran) {
			t.Errorf("%s (run err %v, diff %v): got %d, %v after %v; want %d, %v after %v",
				tc.mode, tc.runErr, tc.diff, got, err, ran, tc.want, tc.wantErr, tc.ran)
		}
	}
}

// pmuSample builds a minimal distinct sample for DiffOutcome tests.
func pmuSample(ip uint32) pmu.Sample {
	return pmu.Sample{IP: ip, TriggerIP: ip, Cycle: uint64(ip) + 1, Seq: uint64(ip) + 1, Period: 100}
}

// TestEngineByName pins the flag spellings.
func TestEngineByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want sampling.EngineMode
		ok   bool
	}{
		{"fast", sampling.EngineFast, true},
		{"interp", sampling.EngineInterp, true},
		{"both", sampling.EngineBoth, true},
		{"turbo", 0, false},
	} {
		got, err := sampling.EngineByName(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("EngineByName(%q) = %v, %v", tc.name, got, err)
		}
	}
}
