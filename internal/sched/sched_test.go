package sched_test

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// tenantProgs builds n distinct tenant programs from the kernel workload
// set at the test scale.
func tenantProgs(t *testing.T, n int, scale float64) []*program.Program {
	t.Helper()
	specs := workloads.Kernels()
	progs := make([]*program.Program, n)
	for i := range progs {
		progs[i] = specs[i%len(specs)].Build(scale)
	}
	return progs
}

// TestContextSwitchCosts pins the per-machine context-switch save/restore
// cost and the kernel-leak accounting derived from it: the costs follow
// the dispatch-width ordering of the platforms, and every switch leaks
// cost/8 kernel instructions into the switched-in tenant's counters.
func TestContextSwitchCosts(t *testing.T) {
	want := map[string]uint64{
		"MagnyCours": 1800,
		"Westmere":   1500,
		"IvyBridge":  1350,
		"FutureGen":  1350, // inherits the Ivy Bridge core
	}
	for _, mach := range machine.AllExtended() {
		if got := mach.CtxSwitchCostCycles; got != want[mach.Name] {
			t.Errorf("%s: CtxSwitchCostCycles = %d, want %d", mach.Name, got, want[mach.Name])
		}
	}

	// The leak accounting on a real run: total leaked instructions are
	// exactly switches × (cost/8), for both the machine default and an
	// explicit override.
	progs := tenantProgs(t, 2, 0.25)
	classic := mustMethod(t, "classic")
	for _, switchCost := range []uint64{0, 4000} {
		mach := machine.Westmere()
		runs, err := sched.Collect(progs, mach, classic, sched.Options{
			Options: sampling.Options{
				PeriodBase:            1000,
				Seed:                  42,
				SchedSwitchCostCycles: switchCost,
			},
		})
		if err != nil {
			t.Fatalf("switchCost %d: %v", switchCost, err)
		}
		effCost := switchCost
		if effCost == 0 {
			effCost = mach.CtxSwitchCostCycles
		}
		for i, run := range runs {
			s := run.Sched
			if s == nil {
				t.Fatalf("tenant %d: nil Sched stats", i)
			}
			if s.Switches == 0 {
				t.Errorf("tenant %d: no context switches recorded", i)
			}
			if wantLeak := s.Switches * (effCost / 8); s.KernelLeakInstrs != wantLeak {
				t.Errorf("tenant %d switchCost %d: KernelLeakInstrs = %d, want %d (switches %d)",
					i, switchCost, s.KernelLeakInstrs, wantLeak, s.Switches)
			}
		}
	}
}

// TestKernelEventUnits pins the kernel switch-path event mix the leak
// model applies — per 16 instructions: 16 inst, 20 uops, 3 taken
// branches, 4 conditional branches, 1 mispredict, 5 loads, 4 stores,
// 1 call, 1 ret, 0 FP.
func TestKernelEventUnits(t *testing.T) {
	for _, tc := range []struct {
		e    pmu.Event
		want uint64
	}{
		{pmu.EvInstRetired, 160},
		{pmu.EvUopsRetired, 200},
		{pmu.EvBrTaken, 30},
		{pmu.EvCondBr, 40},
		{pmu.EvBrMispred, 10},
		{pmu.EvLoad, 50},
		{pmu.EvStore, 40},
		{pmu.EvCall, 10},
		{pmu.EvRet, 10},
		{pmu.EvFPOp, 0},
	} {
		if got := pmu.KernelEventUnits(tc.e, 160); got != tc.want {
			t.Errorf("KernelEventUnits(%s, 160) = %d, want %d", tc.e, got, tc.want)
		}
	}
}

func mustMethod(t *testing.T, key string) sampling.Method {
	t.Helper()
	m, err := sampling.MethodByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSingleTenantMatchesCollect: with one tenant and no migration the
// scheduler must be invisible — the Run is bit-identical to an
// unscheduled sampling.Collect, with no Sched stats attached. This is
// the zero-noise baseline the tenant experiment tables anchor on.
func TestSingleTenantMatchesCollect(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.25)
	opt := sampling.Options{PeriodBase: 1000, Seed: 42}
	for _, mach := range machine.All() {
		for _, m := range sampling.Registry() {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			base, err := sampling.Collect(p, mach, m, opt)
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", mach.Name, m.Key, err)
			}
			runs, err := sched.Collect([]*program.Program{p}, mach, m, sched.Options{Options: opt})
			if err != nil {
				t.Fatalf("%s/%s sched: %v", mach.Name, m.Key, err)
			}
			if len(runs) != 1 {
				t.Fatalf("%s/%s: %d runs for one tenant", mach.Name, m.Key, len(runs))
			}
			if runs[0].Sched != nil {
				t.Errorf("%s/%s: single-tenant run has Sched stats %+v", mach.Name, m.Key, runs[0].Sched)
			}
			if err := sampling.DiffRuns(base, runs[0]); err != nil {
				t.Errorf("%s/%s: single-tenant run differs from baseline: %v", mach.Name, m.Key, err)
			}
		}
	}
}

// TestCollectRejectsTenants pins sched.Collect's input validation.
func TestCollectRejectsTenants(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.25)
	mach := machine.IvyBridge()
	classic := mustMethod(t, "classic")

	if _, err := sched.Collect(nil, mach, classic, sched.Options{}); err == nil {
		t.Error("sched.Collect with no programs: no error")
	}
	_, err := sched.Collect([]*program.Program{p, p}, mach, classic, sched.Options{
		Options: sampling.Options{PeriodBase: 1000, SchedTimesliceCycles: 1},
	})
	if err == nil {
		t.Error("sched.Collect with a 1-cycle period for 2 tenants: no error")
	}
}

// TestTenantFailure pins the error contract of a failing scheduled
// collection under every engine mode: no runs, and the first failing
// tenant's error naming its index, program and machine. Under EngineBoth
// the per-tenant self-check passes identically failing runs, so the
// failure itself is reported, not a divergence.
func TestTenantFailure(t *testing.T) {
	// 160,005 and 1,815,007 instructions: only tenant 1 hits the limit.
	progs := []*program.Program{
		workloads.MustBuild("LatencyBiased", 0.05),
		workloads.MustBuild("G4Box", 0.25),
	}
	mach := machine.IvyBridge()
	for _, eng := range []sampling.EngineMode{sampling.EngineFast, sampling.EngineInterp, sampling.EngineBoth} {
		runs, err := sched.Collect(progs, mach, mustMethod(t, "classic"), sched.Options{
			Options: sampling.Options{PeriodBase: 1000, Seed: 1, MaxInstrs: 400_000, Engine: eng},
		})
		if runs != nil || !errors.Is(err, cpu.ErrInstrLimit) {
			t.Fatalf("%s: runs %v, err %v; want no runs and the instruction limit", eng, runs, err)
		}
		for _, want := range []string{"tenant 1", "G4Box", mach.Name} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", eng, err, want)
			}
		}
	}
}

// TestSchedStatsAccounting checks the noise bookkeeping on a two-tenant
// run: switch counts, drained-capture/foreign-sample conservation, and
// the tenant indexing of the stats.
func TestSchedStatsAccounting(t *testing.T) {
	progs := tenantProgs(t, 2, 0.25)
	// Classic on Magny-Cours: 120-cycle skid keeps PMIs in flight long
	// enough that short slices regularly catch one.
	mach := machine.MagnyCours()
	runs, err := sched.Collect(progs, mach, mustMethod(t, "classic"), sched.Options{
		Options: sampling.Options{
			PeriodBase:           200,
			Seed:                 7,
			SchedTimesliceCycles: 2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var drained, foreign uint64
	for i, run := range runs {
		s := run.Sched
		if s == nil {
			t.Fatalf("tenant %d: nil Sched", i)
		}
		if s.Tenants != 2 || s.Tenant != i {
			t.Errorf("tenant %d: stats indexed as %d/%d", i, s.Tenant, s.Tenants)
		}
		if s.Switches == 0 {
			t.Errorf("tenant %d: no switches", i)
		}
		drained += s.DrainedInFlight
		foreign += s.ForeignSamples
		// Samples must stay Seq-sorted after the foreign merge.
		for j := 1; j < len(run.Samples); j++ {
			if run.Samples[j].Seq < run.Samples[j-1].Seq {
				t.Fatalf("tenant %d: samples out of Seq order at %d", i, j)
			}
		}
	}
	if drained == 0 {
		t.Error("no drained in-flight captures on a skid-heavy config; cross-tenant skid model inert")
	}
	if foreign == 0 {
		t.Error("no foreign samples delivered")
	}
	if foreign > drained {
		t.Errorf("foreign samples (%d) exceed drained captures (%d)", foreign, drained)
	}
}

// TestPDIRImmuneToDrain: PDIR never holds pending capture state, so
// preemption can never drain a capture from it (Table 3's distribution
// guarantee survives scheduling).
func TestPDIRImmuneToDrain(t *testing.T) {
	progs := tenantProgs(t, 4, 0.25)
	runs, err := sched.Collect(progs, machine.IvyBridge(), mustMethod(t, "pdir+ipfix"), sched.Options{
		Options: sampling.Options{PeriodBase: 200, Seed: 7, SchedTimesliceCycles: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.Sched.DrainedInFlight != 0 || run.Sched.ForeignSamples != 0 {
			t.Errorf("tenant %d: pdir drained %d / foreign %d, want 0/0",
				i, run.Sched.DrainedInFlight, run.Sched.ForeignSamples)
		}
	}
}

// TestMigration: tenants rotated across all three paper machines at every
// switch must count one migration per switch and stay engine-identical.
func TestMigration(t *testing.T) {
	progs := tenantProgs(t, 2, 0.25)
	runs, err := sched.Collect(progs, machine.IvyBridge(), mustMethod(t, "classic"), sched.Options{
		Options: sampling.Options{
			PeriodBase: 1000,
			Seed:       42,
			Engine:     sampling.EngineBoth,
		},
		Migrate: machine.All(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.Sched.Migrations != run.Sched.Switches {
			t.Errorf("tenant %d: %d migrations for %d switches",
				i, run.Sched.Migrations, run.Sched.Switches)
		}
	}

	// Migration with a single tenant still schedules (no delegation).
	one, err := sched.Collect(progs[:1], machine.IvyBridge(), mustMethod(t, "classic"), sched.Options{
		Options: sampling.Options{PeriodBase: 1000, Seed: 42, Engine: sampling.EngineBoth},
		Migrate: machine.All(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Sched == nil || one[0].Sched.Migrations == 0 {
		t.Error("single-tenant migration run did not migrate")
	}
	if one[0].Sched.ForeignSamples != 0 {
		t.Error("single tenant received foreign samples from itself")
	}
}

// TestMigrationMux: migration re-places multiplexed events on the target
// machine's counter budget mid-run, under both engines. Magny-Cours has
// no fixed counter while the Intel parts do, so rotating across all
// three exercises Repartition's budget changes in both directions.
func TestMigrationMux(t *testing.T) {
	progs := tenantProgs(t, 2, 0.25)
	events := []pmu.Event{
		pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad,
		pmu.EvStore, pmu.EvCondBr, pmu.EvUopsRetired,
	}
	runs, err := sched.Collect(progs, machine.Westmere(), mustMethod(t, "classic"), sched.Options{
		Options: sampling.Options{
			PeriodBase: 1000,
			Seed:       42,
			Engine:     sampling.EngineBoth,
			Events:     events,
		},
		Migrate: machine.All(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if len(run.Counts) != len(events) {
			t.Errorf("tenant %d: %d counts for %d events", i, len(run.Counts), len(events))
		}
	}
}

// TestTenantDeterminism: repeated collections with identical inputs are
// bit-identical, run by run.
func TestTenantDeterminism(t *testing.T) {
	progs := tenantProgs(t, 4, 0.25)
	opt := sched.Options{
		Options: sampling.Options{PeriodBase: 500, Seed: 11},
	}
	a, err := sched.Collect(progs, machine.Westmere(), mustMethod(t, "precise"), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Collect(progs, machine.Westmere(), mustMethod(t, "precise"), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if err := sampling.DiffRuns(a[i], b[i]); err != nil {
			t.Errorf("tenant %d: repeat run differs: %v", i, err)
		}
	}
}

// tenantInput is one shape of tenant list.
type tenantInput struct {
	name   string
	shared bool // one program repeated, so the tenants share one execution
	progs  []*program.Program
}

// tenantInputs are the two shapes of tenant list: distinct kernels, one
// execution each, and one program repeated n times — the homogeneous
// tenancy the tenants experiment measures.
func tenantInputs(t *testing.T, n int, scale float64) []tenantInput {
	return []tenantInput{
		{"distinct", false, tenantProgs(t, n, scale)},
		{"shared", true, slices.Repeat([]*program.Program{workloads.MustBuild("G4Box", scale)}, n)},
	}
}

// TestTenantGridBitIdentical is the scheduler's slice of the
// differential battery: every (tenant count × machine × method) cell
// must be bit-identical across the interpreter and the fast engine —
// scheduler deadlines are fast-path fallback points exactly like mux
// rotation deadlines — for distinct and for shared tenant programs.
// EngineBoth diffs internally (including foreign merges and SchedStats
// via DiffRuns), so success is the assertion.
func TestTenantGridBitIdentical(t *testing.T) {
	methods := append(sampling.Registry(), sampling.FreqMode())
	counts := []int{2, 4}
	if testing.Short() {
		counts = []int{2}
	}
	for _, n := range counts {
		t.Run(tenantName(n), func(t *testing.T) {
			t.Parallel()
			for _, in := range tenantInputs(t, n, 0.25) {
				t.Run(in.name, func(t *testing.T) {
					t.Parallel()
					for _, mach := range machine.All() {
						for _, m := range methods {
							if _, ok := sampling.Resolve(m, mach); !ok {
								continue
							}
							_, err := sched.Collect(in.progs, mach, m, sched.Options{
								Options: sampling.Options{
									PeriodBase: 1000,
									Seed:       42,
									Engine:     sampling.EngineBoth,
								},
							})
							if err != nil {
								t.Errorf("n=%d %s %s/%s: %v", n, in.name, mach.Name, m.Key, err)
							}
						}
					}
				})
			}
		})
	}
}

// TestTenantFuzzPrograms extends the fuzz battery to scheduled runs:
// randomized tenant programs under EngineBoth, with short slices to
// maximize deadline/boundary interactions.
func TestTenantFuzzPrograms(t *testing.T) {
	n := uint64(25)
	if testing.Short() {
		n = 8
	}
	cfg := program.DefaultGenConfig()
	mach := machine.IvyBridge()
	methods := append(sampling.Registry(), sampling.FreqMode())
	for seed := uint64(0); seed < n; seed++ {
		progs := []*program.Program{
			program.Random(seed, cfg),
			program.Random(seed+1000, cfg),
		}
		for _, m := range methods {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			_, err := sched.Collect(progs, mach, m, sched.Options{
				Options: sampling.Options{
					PeriodBase:           200,
					Seed:                 seed,
					Engine:               sampling.EngineBoth,
					SchedTimesliceCycles: 600,
				},
			})
			if err != nil {
				t.Fatalf("seed %d method %s: %v", seed, m.Key, err)
			}
		}
	}
}

// TestTenantStridesPerSlice: the engine strides through a timeslice up
// to its deadline fence, so a tenant run needs about one stride per
// context switch and per sampling overflow, not one per handful of
// instructions. With one execution per tenant the bound allows each
// tenant a stride at run start and one at run end on top. A shared
// execution ends a stride at every tenant's switches and overflows, and
// every tenant's counters record each shared stride, so there the bound
// applies per tenant. Either way every tenant accounts each of its
// instructions once, strided or in event mode.
func TestTenantStridesPerSlice(t *testing.T) {
	pdir := mustMethod(t, "pdir+ipfix")
	for _, n := range []int{2, 4, 8} {
		for _, in := range tenantInputs(t, n, 0.25) {
			sink := &telemetry.Sink{}
			runs, err := sched.Collect(in.progs, machine.IvyBridge(), pdir, sched.Options{
				Options: sampling.Options{PeriodBase: 2000, Seed: 7, Telemetry: sink},
			})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, in.name, err)
			}
			var switches, overflows, instrs uint64
			for _, run := range runs {
				switches += run.Sched.Switches
				overflows += run.Overflows
				instrs += run.CPU.Instructions
			}
			e := sink.Snapshot("").Engine
			strides, bound := e.Strides, switches+overflows+2*uint64(n)
			if in.shared {
				strides, bound = e.Strides/uint64(n), switches+overflows+2
			}
			if strides > bound {
				t.Errorf("n=%d %s: %d strides, want at most %d (switches %d + overflows %d)",
					n, in.name, strides, bound, switches, overflows)
			}
			if got := e.StrideInstrs + e.EventInstrs; got != instrs {
				t.Errorf("n=%d %s: telemetry saw %d instructions (stride %d + event %d), tenants retired %d",
					n, in.name, got, e.StrideInstrs, e.EventInstrs, instrs)
			}
		}
	}
}

func tenantName(n int) string {
	return "n" + strconv.Itoa(n)
}
