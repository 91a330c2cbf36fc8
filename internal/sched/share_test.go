package sched_test

// Tenants that run one program share one execution of it (sched.Collect
// groups tenants by program). Sharing must be invisible: a tenant list
// that repeats one program must collect exactly what n separately built
// copies of it collect, one execution each.

import (
	"fmt"
	"slices"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// sharingVariant is one scheduling regime of the sharing check.
type sharingVariant struct {
	name string
	opt  sched.Options
}

// sharingVariants covers what a shared execution must keep per tenant:
// plain scheduling, a seven-event multiplexer with its own rotation
// deadlines, migration across every paper machine, and 600-cycle slices.
func sharingVariants() []sharingVariant {
	mux7 := []pmu.Event{
		pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad, pmu.EvStore,
		pmu.EvCondBr, pmu.EvUopsRetired, pmu.EvFPOp,
	}
	return []sharingVariant{
		{"plain", sched.Options{}},
		{"mux7", sched.Options{Options: sampling.Options{Events: mux7}}},
		{"migrate", sched.Options{Migrate: machine.All()}},
		{"slice600", sched.Options{Options: sampling.Options{SchedTimesliceCycles: 600}}},
	}
}

// sharingCase is one collection of the sharing check: build makes one
// copy of the tenant program.
type sharingCase struct {
	build     func() *program.Program
	n         int
	mach      machine.Machine
	m         sampling.Method
	v         sharingVariant
	eng       sampling.EngineMode
	maxInstrs uint64
}

func (c sharingCase) String() string {
	return fmt.Sprintf("n=%d %s/%s/%s/%s max=%d", c.n, c.mach.Name, c.m.Key, c.v.name, c.eng, c.maxInstrs)
}

// diffSharing collects c's program repeated n times (one shared
// execution) and n separately built copies (one execution each) and
// requires identical error text and, per tenant, identical runs.
func diffSharing(c sharingCase) error {
	opt := c.v.opt
	opt.PeriodBase, opt.Seed, opt.Engine, opt.MaxInstrs = 200, 7, c.eng, c.maxInstrs
	shared, sharedErr := sched.Collect(slices.Repeat([]*program.Program{c.build()}, c.n), c.mach, c.m, opt)
	copies := make([]*program.Program, c.n)
	for i := range copies {
		copies[i] = c.build()
	}
	alone, aloneErr := sched.Collect(copies, c.mach, c.m, opt)
	switch {
	case (sharedErr == nil) != (aloneErr == nil):
		return fmt.Errorf("shared err=%v, separate err=%v", sharedErr, aloneErr)
	case sharedErr != nil:
		if sharedErr.Error() != aloneErr.Error() {
			return fmt.Errorf("shared error %q vs separate error %q", sharedErr, aloneErr)
		}
		return nil
	}
	for i := range shared {
		if err := sampling.DiffRuns(alone[i], shared[i]); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	return nil
}

// sharingMethods is every registry method plus frequency mode.
func sharingMethods() []sampling.Method {
	return append(sampling.Registry(), sampling.FreqMode())
}

// sharingGrid is a set of sharing checks on the program build makes:
// every method on each of its machines, crossed with its variants,
// tenant counts, engines and instruction limits.
type sharingGrid struct {
	build    func() *program.Program
	machines []machine.Machine
	variants []sharingVariant
	counts   []int
	engines  []sampling.EngineMode
	limits   []uint64
}

// check runs diffSharing on every case of g the machine supports.
func (g sharingGrid) check(t *testing.T) {
	t.Helper()
	for _, mach := range g.machines {
		for _, m := range sharingMethods() {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			for _, v := range g.variants {
				for _, n := range g.counts {
					for _, eng := range g.engines {
						for _, limit := range g.limits {
							c := sharingCase{g.build, n, mach, m, v, eng, limit}
							if err := diffSharing(c); err != nil {
								t.Errorf("%s: %v", c, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedExecutionInvisible is the tier-1 slice of the sharing check
// (the full grid runs under -tags slow): a kernel under every method and
// variant at three tenants, and randomized programs — some cut by the
// instruction limit — under both engines.
func TestSharedExecutionInvisible(t *testing.T) {
	sharingGrid{func() *program.Program { return workloads.MustBuild("G4Box", 0.05) },
		machine.All(), sharingVariants(), []int{3}, []sampling.EngineMode{sampling.EngineFast}, []uint64{0}}.check(t)
	cfg := program.DefaultGenConfig()
	variants := sharingVariants()
	for seed := uint64(0); seed < 8; seed++ {
		v := seed % uint64(len(variants))
		sharingGrid{func() *program.Program { return program.Random(seed, cfg) },
			[]machine.Machine{machine.IvyBridge()}, variants[v : v+1], []int{[]int{2, 8}[seed%2]},
			[]sampling.EngineMode{sampling.EngineBoth}, []uint64{0, 5000}}.check(t)
	}
}

// TestTenantFusedPairs: every tenant run records its program's fused
// pairs once, as an unscheduled run does, whether the tenants share one
// execution or each run their own.
func TestTenantFusedPairs(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.05)
	classic := mustMethod(t, "classic")
	fused := func(progs []*program.Program) uint64 {
		t.Helper()
		sink := &telemetry.Sink{}
		opt := sched.Options{Options: sampling.Options{PeriodBase: 1000, Seed: 3, Telemetry: sink}}
		if _, err := sched.Collect(progs, machine.Westmere(), classic, opt); err != nil {
			t.Fatal(err)
		}
		return sink.Snapshot("").Engine.FusedPairs
	}
	one := fused([]*program.Program{p})
	if one == 0 {
		t.Fatal("one-tenant run recorded no fused pairs")
	}
	for _, n := range []int{2, 4} {
		if got := fused(slices.Repeat([]*program.Program{p}, n)); got != uint64(n)*one {
			t.Errorf("n=%d shared: %d fused pairs, want %d", n, got, uint64(n)*one)
		}
	}
	progs := tenantProgs(t, 2, 0.05)
	if got, want := fused(progs), fused(progs[:1])+fused(progs[1:]); got != want {
		t.Errorf("distinct programs: %d fused pairs, want %d", got, want)
	}
}
