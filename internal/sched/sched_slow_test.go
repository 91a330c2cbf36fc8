//go:build slow

package sched_test

// Paper-scale multi-tenant engine equivalence (go test -tags slow): the
// tenant grid at the PaperScale regime (8x workloads, period base 4000),
// every cell self-checked bit-for-bit by EngineBoth — scheduler
// deadlines are fast-path fallback points exactly like mux rotation
// deadlines, so the fast engine must reproduce the interpreter's sample
// streams, foreign-sample merges and noise accounting at full scale.

import (
	"fmt"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/workloads"
)

// buildTenants builds n paper-scale copies of one workload — the
// homogeneous tenancy the tenants experiment measures.
func buildTenants(spec workloads.Spec, n int) []*program.Program {
	progs := make([]*program.Program, n)
	for i := range progs {
		progs[i] = spec.Build(8)
	}
	return progs
}

// slowTenantMethods is the tenant-experiment method set: one
// representative per attribution family (imprecise EBS, precise EBS,
// PDIR, LBR-stack) — the families whose scheduling-noise behavior
// differs, without re-running near-identical precise variants.
func slowTenantMethods(t *testing.T) []sampling.Method {
	t.Helper()
	var ms []sampling.Method
	for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestTenantGridBitIdenticalPaperScale: the full tenant grid — paper
// kernels x machines x method families x tenant counts — at the paper
// regime under EngineBoth. Any engine divergence fails the cell with a
// sample-level diff.
func TestTenantGridBitIdenticalPaperScale(t *testing.T) {
	for _, spec := range workloads.Kernels() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			methods := slowTenantMethods(t)
			for _, mach := range machine.All() {
				for _, m := range methods {
					if _, ok := sampling.Resolve(m, mach); !ok {
						continue
					}
					for _, n := range []int{2, 8} {
						runs, err := sched.Collect(buildTenants(spec, n), mach, m, sched.Options{
							Options: sampling.Options{
								PeriodBase: 4000,
								Seed:       42,
								Engine:     sampling.EngineBoth,
							},
						})
						if err != nil {
							t.Errorf("%s/%s/%s n=%d: %v", spec.Name, mach.Name, m.Key, n, err)
							continue
						}
						if len(runs) != n {
							t.Errorf("%s/%s/%s n=%d: %d runs", spec.Name, mach.Name, m.Key, n, len(runs))
						}
					}
				}
			}
		})
	}
}

// TestTenantMigrationBitIdenticalPaperScale: cross-model migration at
// every context switch — the PMU repartitions and the skid model changes
// mid-run — must also stay bit-identical across engines at paper scale.
func TestTenantMigrationBitIdenticalPaperScale(t *testing.T) {
	for _, spec := range workloads.Kernels() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, m := range slowTenantMethods(t) {
				runs, err := sched.Collect(buildTenants(spec, 4), machine.Westmere(), m, sched.Options{
					Options: sampling.Options{
						PeriodBase: 4000,
						Seed:       7,
						Engine:     sampling.EngineBoth,
					},
					Migrate: machine.All(),
				})
				if err != nil {
					t.Errorf("%s/%s: %v", spec.Name, m.Key, err)
					continue
				}
				for i, run := range runs {
					if run.Sched == nil || run.Sched.Migrations == 0 {
						t.Errorf("%s/%s tenant %d: never migrated (%+v)", spec.Name, m.Key, i, run.Sched)
					}
				}
			}
		})
	}
}

// TestSharedExecutionInvisibleFull is the full sharing grid: tenant
// lists that repeat one program against separately built copies at 2, 3
// and 8 tenants, under every method and sharing variant and both
// engines — a kernel on every paper machine, and 40 randomized programs,
// run to completion and cut at 5,000 instructions.
func TestSharedExecutionInvisibleFull(t *testing.T) {
	counts := []int{2, 3, 8}
	engines := []sampling.EngineMode{sampling.EngineFast, sampling.EngineBoth}
	t.Run("G4Box", func(t *testing.T) {
		t.Parallel()
		sharingGrid{func() *program.Program { return workloads.MustBuild("G4Box", 0.25) },
			machine.All(), sharingVariants(), counts, engines, []uint64{0}}.check(t)
	})
	cfg := program.DefaultGenConfig()
	for seed := uint64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("rand-%d", seed), func(t *testing.T) {
			t.Parallel()
			sharingGrid{func() *program.Program { return program.Random(seed, cfg) },
				[]machine.Machine{machine.IvyBridge()}, sharingVariants(), counts, engines, []uint64{0, 5000}}.check(t)
		})
	}
}
