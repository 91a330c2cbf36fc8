package experiments

import (
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

func TestFreqModeConvergesToTargetRate(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.3)
	freq := sampling.FreqMode()
	run, err := sampling.Collect(p, machine.IvyBridge(), freq, sampling.Options{
		PeriodBase: 2000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) < 50 {
		t.Fatalf("samples = %d", len(run.Samples))
	}
	// After convergence, inter-sample cycle intervals should hover around
	// the target (PeriodBase cycles). Check the second half of the run.
	half := run.Samples[len(run.Samples)/2:]
	var sum float64
	for i := 1; i < len(half); i++ {
		sum += float64(half[i].Cycle - half[i-1].Cycle)
	}
	mean := sum / float64(len(half)-1)
	if mean < 1000 || mean > 4000 {
		t.Errorf("mean inter-sample interval %.0f cycles, want ≈2000", mean)
	}
	// The recorded per-sample periods must vary (feedback at work).
	first, varied := half[0].Period, false
	for _, s := range half {
		if s.Period != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("frequency mode never adjusted the period")
	}
}

func TestFreqModeMassConservation(t *testing.T) {
	// Per-sample period weighting must keep the estimated instruction
	// mass near the true total even as periods drift.
	p := workloads.MustBuild("Test40", 0.3)
	freq := sampling.FreqMode()
	r := NewRunner(SmallScale(), 3)
	spec, _ := workloads.ByName("Test40")
	reference, err := r.Reference(spec)
	_ = reference
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	e, run, err := r.MeasureOnce(spec, machine.IvyBridge(), freq, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) == 0 {
		t.Fatal("no samples")
	}
	if e < 0 || e > 2 {
		t.Errorf("freq-mode error out of range: %v", e)
	}
}

func TestRunFreqVsFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel set twice")
	}
	r := NewRunner(SmallScale(), 7)
	tbl, res, err := r.RunFreqVsFixed()
	if err != nil {
		t.Fatalf("RunFreqVsFixed: %v", err)
	}
	t.Logf("\n%s", tbl.String())
	for _, k := range []string{"LatencyBiased", "CallChain", "G4Box", "Test40"} {
		if res.FixedErr[k] <= 0 || res.FreqErr[k] <= 0 {
			t.Errorf("%s: missing cells", k)
		}
	}
	// Frequency mode dodges resonance, so on CallChain (where the fixed
	// round period resonates) it must do better than fixed classic.
	if res.FreqErr["CallChain"] >= res.FixedErr["CallChain"] {
		t.Errorf("freq mode did not beat resonating fixed period on CallChain: %.4f vs %.4f",
			res.FreqErr["CallChain"], res.FixedErr["CallChain"])
	}
}

func TestFreqModePMUUnit(t *testing.T) {
	// Direct PMU check: with FreqMode the base period moves; without it
	// stays fixed.
	cfg := pmu.Config{
		Event: pmu.EvInstRetired, Precision: pmu.PreciseDist,
		Period: 100, FreqMode: true, TargetIntervalCycles: 500, Seed: 1,
	}
	unit := pmu.New(cfg)
	if unit.EffectiveBasePeriod() != 100 {
		t.Fatal("initial base period")
	}
	feedLinear(unit, 20_000)
	if unit.EffectiveBasePeriod() == 100 {
		t.Error("freq mode left the period untouched")
	}

	fixed := pmu.New(pmu.Config{
		Event: pmu.EvInstRetired, Precision: pmu.PreciseDist, Period: 100, Seed: 1,
	})
	feedLinear(fixed, 20_000)
	if fixed.EffectiveBasePeriod() != 100 {
		t.Error("fixed mode changed the period")
	}
}

func feedLinear(p *pmu.PMU, n int) {
	for i := 0; i < n; i++ {
		p.OnRetire(cpuEvent(uint32(i%509), uint64(i)))
	}
}

func cpuEvent(idx uint32, cycle uint64) cpu.RetireEvent {
	return cpu.RetireEvent{Idx: idx, Cycle: cycle, Seq: cycle + 1, Op: isa.OpAdd, Uops: 1}
}
