package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
)

// TestTenantsTable: the headline acceptance properties of the scheduling
// table — deterministic at any worker count and under the self-checking
// EngineBoth mode, with the n=1 column exactly matching the unscheduled
// accuracy cells.
func TestTenantsTable(t *testing.T) {
	counts := []int{1, 2, 4}
	render := func(parallel int, engine sampling.EngineMode) (string, []TenantMeasurement) {
		r := NewRunner(SmallScale(), 42)
		r.Parallel = parallel
		r.Engine = engine
		tb, ms, err := r.RunTenants(counts, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String(), ms
	}

	t1, ms := render(1, sampling.EngineFast)
	t8, _ := render(8, sampling.EngineFast)
	if t1 != t8 {
		t.Fatalf("table differs across worker counts:\n%s\nvs\n%s", t1, t8)
	}
	if !testing.Short() {
		tBoth, _ := render(4, sampling.EngineBoth)
		if t1 != tBoth {
			t.Fatalf("table differs under EngineBoth:\n%s\nvs\n%s", t1, tBoth)
		}
	}
	for _, mach := range machine.All() {
		if !strings.Contains(t1, mach.Name) {
			t.Errorf("table lacks machine %s:\n%s", mach.Name, t1)
		}
	}

	// Multi-tenant supported cells must have been scheduled (switches
	// recorded); single-tenant cells must not carry Sched stats.
	for _, m := range ms {
		if !m.Supported {
			continue
		}
		if m.Tenants == 1 {
			if m.Sched != nil {
				t.Errorf("%s/%s/%s: single-tenant cell has Sched stats", m.Workload, m.Machine, m.Key)
			}
			continue
		}
		if m.Sched == nil || m.Sched.Switches == 0 {
			t.Errorf("%s/%s/%s: multi-tenant cell unscheduled (%+v)", m.Workload, m.Machine, m.Key, m.Sched)
		}
	}
}

// TestTenantsBaselineMatch: the n=1 cell is collected by the unscheduled
// sampling path with the same derived seeds as the plain accuracy
// measurement, so the two values must be identical — not close, equal.
func TestTenantsBaselineMatch(t *testing.T) {
	r := NewRunner(SmallScale(), 42)
	specs := tenantWorkloads()
	if testing.Short() {
		// The property is seed-derivation equality, identical for every
		// workload; one suffices for the fast (and race) tier.
		specs = specs[:1]
	}
	for _, spec := range specs {
		for _, mach := range machine.All() {
			for _, m := range tenantMethods() {
				base, err := r.Measure(spec, mach, m)
				if err != nil {
					t.Fatal(err)
				}
				tn, err := r.MeasureTenants(spec, mach, m, 1, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if tn.Err != base.Err || tn.Samples != base.Samples {
					t.Errorf("%s/%s/%s: n=1 cell (err %v, samples %d) != baseline (err %v, samples %d)",
						spec.Name, mach.Name, m.Key, tn.Err, tn.Samples, base.Err, base.Samples)
				}
			}
		}
	}
}

// TestTenantsTimesliceTable: the timeslice sweep renders and shorter
// slices schedule strictly more switches for the same tenant count.
func TestTenantsTimesliceTable(t *testing.T) {
	if testing.Short() {
		// Shape/monotonicity only — no concurrency beyond what
		// TestTenantsTable already exercises; skip in the fast tier.
		t.Skip("timeslice sweep is a default-tier test")
	}
	r := NewRunner(SmallScale(), 42)
	tb, ms, err := r.RunTenantsTimeslice(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "ts=4000") {
		t.Errorf("table lacks timeslice column:\n%s", tb)
	}
	byCell := make(map[string]map[uint64]uint64) // workload/machine/method -> ts -> switches
	for _, m := range ms {
		if m.Sched == nil {
			continue
		}
		cell := m.Workload + "/" + m.Machine + "/" + m.Method
		if byCell[cell] == nil {
			byCell[cell] = make(map[uint64]uint64)
		}
		// Recover the timeslice from the synthetic key (tn-n04-ts16000-…).
		var n int
		var ts uint64
		if _, err := fmt.Sscanf(m.Key, "tn-n%02d-ts%05d", &n, &ts); err != nil {
			t.Fatalf("unparseable key %q: %v", m.Key, err)
		}
		byCell[cell][ts] = m.Sched.Switches
	}
	for cell, byTS := range byCell {
		if byTS[4000] <= byTS[64000] {
			t.Errorf("%s: %d switches at ts=4000 <= %d at ts=64000", cell, byTS[4000], byTS[64000])
		}
	}
}

// TestTenantsStoreResume: tenant cells are store-addressable like every
// other sweep — a warm resume re-measures nothing and renders
// byte-identically.
func TestTenantsStoreResume(t *testing.T) {
	path := t.TempDir() + "/tenants.jsonl"
	st, err := results.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(SmallScale(), 42)
	r.Store = st
	r.Telemetry = &telemetry.Sink{}
	t1, ms, err := r.RunTenants([]int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := r.StoreStats()
	if cold.Measured == 0 || cold.Cached != 0 {
		t.Fatalf("cold run stats: %+v", cold)
	}
	supported := 0
	for _, m := range ms {
		if m.Supported {
			supported++
		}
	}
	snap := r.Telemetry.Snapshot("")
	if snap.Sweep.CellsMeasured != uint64(len(ms)) || snap.Sweep.CellsStored != 0 {
		t.Fatalf("cold run telemetry: measured %d stored %d, want %d grid cells measured",
			snap.Sweep.CellsMeasured, snap.Sweep.CellsStored, len(ms))
	}
	if snap.Sweep.CellWallNs.Count != uint64(supported) {
		t.Fatalf("cold run cell-wall histogram holds %d cells, want %d supported",
			snap.Sweep.CellWallNs.Count, supported)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunner(SmallScale(), 42)
	r2.Store = st2
	r2.Telemetry = &telemetry.Sink{}
	t2, _, err := r2.RunTenants([]int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := r2.StoreStats()
	if warm.Measured != 0 || warm.Cached != cold.Measured {
		t.Fatalf("warm run stats: %+v (cold %+v)", warm, cold)
	}
	snap = r2.Telemetry.Snapshot("")
	if snap.Sweep.CellsStored != uint64(len(ms)) || snap.Sweep.CellsMeasured != 0 {
		t.Fatalf("warm run telemetry: measured %d stored %d, want %d grid cells stored",
			snap.Sweep.CellsMeasured, snap.Sweep.CellsStored, len(ms))
	}
	if t1.String() != t2.String() {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", t1, t2)
	}
}

// TestTenantKeySelfSorting: zero-padded keys order by (count, timeslice)
// lexically, and the format is pinned for pmureport's "tn-" routing.
func TestTenantKeySelfSorting(t *testing.T) {
	if TenantKey(2, 16000, "classic") >= TenantKey(10, 16000, "classic") {
		t.Error("count ordering broken")
	}
	if TenantKey(4, 4000, "classic") >= TenantKey(4, 64000, "classic") {
		t.Error("timeslice ordering broken")
	}
	if TenantKey(4, 16000, "classic") != "tn-n04-ts16000-classic" {
		t.Errorf("key format drifted: %s", TenantKey(4, 16000, "classic"))
	}
}
