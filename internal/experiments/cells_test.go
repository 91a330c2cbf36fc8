package experiments

import (
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// cellPathCase is one caller of the cell path: a grid it sends through
// the path with the Runner's store, and whether each of the grid's cells
// is supported.
type cellPathCase struct {
	name      string
	supported []bool
	run       func(r *Runner) error
}

// cellPathCases covers every caller of the cell path: a SweepCached
// grid, whose misses are measured in (workload, machine) groups, a mux
// grid, a tenant grid and the sweepd worker's serve and measure steps,
// over two shards whose boundary splits the first group. The accuracy
// and tenant grids include cells Magny-Cours cannot run.
func cellPathCases(t *testing.T) []cellPathCase {
	spec, err := workloads.ByName("LatencyBiased")
	if err != nil {
		t.Fatal(err)
	}
	var methods []sampling.Method
	for _, key := range []string{"classic", "lbr"} {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		methods = append(methods, m)
	}
	g := Grid{
		Workloads: []workloads.Spec{spec},
		Machines:  []machine.Machine{machine.IvyBridge(), machine.MagnyCours()},
		Methods:   methods,
	}
	var grid []bool
	for _, c := range g.Cells() {
		_, ok := sampling.Resolve(c.Method, c.Machine)
		grid = append(grid, ok)
	}
	var tenants []bool
	for range tenantWorkloads() {
		for _, mach := range machine.All() {
			for _, m := range tenantMethods() {
				_, ok := sampling.Resolve(m, mach)
				tenants = append(tenants, ok)
			}
		}
	}
	mux := make([]bool, len(muxWorkloads())*len(machine.All())*2)
	for i := range mux {
		mux[i] = true
	}
	return []cellPathCase{
		{"sweep-cached", grid, func(r *Runner) error {
			_, _, err := r.SweepCached(g, r.Store, SweepOptions{Parallel: 2})
			return err
		}},
		{"mux", mux, func(r *Runner) error {
			_, _, err := r.RunMuxPolicy()
			return err
		}},
		{"tenants", tenants, func(r *Runner) error {
			_, _, err := r.RunTenants([]int{2}, 0)
			return err
		}},
		{"worker", grid, func(r *Runner) error {
			cells := g.Cells()
			var first error
			for _, shard := range [][]Cell{cells[:1], cells[1:]} {
				for _, group := range r.ServeCells(shard, r.Store) {
					if _, err := r.MeasureCells(group, r.Store); err != nil && first == nil {
						first = err
					}
				}
			}
			return first
		}},
	}
}

// TestCellPathCountingRule pins the one counting rule over every caller
// of the cell path, cold, warm and with failing cells: a served cell
// counts as stored, a dispatched cell as measured whatever its outcome,
// so measured + stored covers the grid; a failed cell is not stored and
// is measured again by the next attempt, while an unsupported one is
// stored; StoreStats equals the telemetry sink's counts; and the
// wall-time histogram holds one observation per measured supported cell.
func TestCellPathCountingRule(t *testing.T) {
	for _, tc := range cellPathCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			n, sup := len(tc.supported), 0
			for _, ok := range tc.supported {
				if ok {
					sup++
				}
			}
			// attempt runs the case on a fresh Runner over st and checks
			// the counts it reports against the wanted split.
			attempt := func(phase string, scale Scale, st results.Store, measured, stored int, wantErr bool) {
				t.Helper()
				r := NewRunner(scale, 42)
				r.Parallel = 2
				r.Store = st
				r.Telemetry = &telemetry.Sink{}
				err := tc.run(r)
				if (err != nil) != wantErr {
					t.Fatalf("%s: err = %v, want error %v", phase, err, wantErr)
				}
				stats := r.StoreStats()
				if stats.Measured != measured || stats.Cached != stored {
					t.Errorf("%s: StoreStats = %+v, want measured %d stored %d", phase, stats, measured, stored)
				}
				if stats.Measured+stats.Cached != n {
					t.Errorf("%s: measured %d + stored %d != %d grid cells", phase, stats.Measured, stats.Cached, n)
				}
				snap := r.Telemetry.Snapshot("")
				if snap.Sweep.CellsMeasured != uint64(stats.Measured) || snap.Sweep.CellsStored != uint64(stats.Cached) {
					t.Errorf("%s: sink counts measured %d stored %d, StoreStats %+v",
						phase, snap.Sweep.CellsMeasured, snap.Sweep.CellsStored, stats)
				}
				// Each phase that measures anything measures every
				// supported cell: the warm phase serves all, the second
				// failing attempt serves only the unsupported ones.
				wantWall := sup
				if measured == 0 {
					wantWall = 0
				}
				if snap.Sweep.CellWallNs.Count != uint64(wantWall) {
					t.Errorf("%s: cell-wall histogram holds %d cells, want %d", phase, snap.Sweep.CellWallNs.Count, wantWall)
				}
			}

			st := results.NewMemory()
			attempt("cold", SmallScale(), st, n, 0, false)
			if st.Len() != n {
				t.Errorf("cold run stored %d of %d cells", st.Len(), n)
			}
			attempt("warm", SmallScale(), st, 0, n, false)

			// A zero period base makes every repeat of a supported cell
			// fail; an unsupported cell never runs a repeat, so it
			// succeeds and is stored.
			failing := SmallScale()
			failing.PeriodBase = 0
			fst := results.NewMemory()
			attempt("failing", failing, fst, n, 0, sup > 0)
			if fst.Len() != n-sup {
				t.Errorf("failing run stored %d cells, want the %d unsupported", fst.Len(), n-sup)
			}
			attempt("failing again", failing, fst, sup, n-sup, sup > 0)
		})
	}
}

// TestTenantsSwitchCostNeverStored: the switch cost is not part of a
// tenant cell's identity, so cells at a non-default cost are neither
// served from a store filled at the default cost nor written to it, and
// render exactly as a run with no store.
func TestTenantsSwitchCostNeverStored(t *testing.T) {
	st := results.NewMemory()
	r := NewRunner(SmallScale(), 42)
	r.Store = st
	def, _, err := r.RunTenants([]int{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	filled := st.Len()

	r2 := NewRunner(SmallScale(), 42)
	r2.Store = st
	got, _, err := r2.RunTenants([]int{2}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if stats := r2.StoreStats(); stats.Cached != 0 {
		t.Errorf("non-default switch cost served %d cells from the store: %+v", stats.Cached, stats)
	}
	if st.Len() != filled {
		t.Errorf("non-default switch cost stored %d cells", st.Len()-filled)
	}
	want, _, err := NewRunner(SmallScale(), 42).RunTenants([]int{2}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("store-backed run differs from a run with no store:\n%s\nvs\n%s", got, want)
	}
	if got.String() == def.String() {
		t.Error("switch cost 40000 renders the default-cost table; the test cannot tell stale cells from fresh ones")
	}
}
