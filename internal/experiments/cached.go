package experiments

// The cell path. Every grid kind (the accuracy matrices' Cell, the mux
// grids' muxCell and the tenant grids' tenantCell) and the sweepd worker
// look a cell up, measure it, count it and append it through the
// functions in this file, under one counting rule:
//
//   - a cell served from the store counts as stored;
//   - a dispatched cell counts as measured, whatever its outcome
//     (unsupported, failed or succeeded);
//   - a cell a timeout abandons before dispatch counts as neither.
//
// Only a successful measurement is appended, so the next attempt measures
// a failed cell again. The misses of one accuracy-grid (workload,
// machine) are measured as one group, sharing executions (see
// measureShared); each still counts, appends and fails alone, unless its
// shared execution fails. The wall-time histogram observes every
// measured, supported cell once, with its group's wall time divided
// evenly among the group's supported cells, so the histogram's total is
// the groups' wall time.

import (
	"fmt"
	"sync/atomic"
	"time"

	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
)

// cellKind is one grid kind on the cell path; M is its result type and
// C the kind itself.
type cellKind[M, C any] interface {
	// coords names the cell in its store identity. The method axis
	// carries the kind's synthetic key (MuxKey, TenantKey) where the
	// cell is not a plain accuracy cell.
	coords() (workload, machine, method string)
	// joins reports whether the cell, a miss, is measured in one group
	// with prev, the miss before it in grid order. Only accuracy cells
	// of one (workload, machine) join.
	joins(prev C) bool
	// measure measures group, the cell itself first, and returns each
	// cell's result and error.
	measure(r *Runner, group []C) ([]M, []error)
	// record converts a measurement to its store record, less the
	// identity; served is the result a record brings back.
	record(m M) results.Record
	served(rec results.Record) M
}

// identity is the one constructor of a cell's results-store identity:
// the cell coordinates plus every scale and seed knob that feeds the
// measurement.
func (r *Runner) identity(workload, mach, method string) results.Identity {
	return results.Identity{
		Workload:      workload,
		Machine:       mach,
		Method:        method,
		Scale:         r.Scale.Name,
		WorkloadScale: r.Scale.Workload,
		PeriodBase:    r.Scale.PeriodBase,
		Seed:          r.Seed,
		Repeats:       r.Scale.Repeats,
	}
}

// CellIdentity returns the results-store identity of one accuracy grid
// cell under this runner's configuration. Its Key() is the content
// address SweepCached caches under.
func (r *Runner) CellIdentity(c Cell) results.Identity {
	return r.identity(c.coords())
}

func (c Cell) coords() (string, string, string) {
	return c.Workload.Name, c.Machine.Name, c.Method.Key
}

func (c Cell) joins(prev Cell) bool {
	return c.Workload.Name == prev.Workload.Name && c.Machine.Name == prev.Machine.Name
}

func (c Cell) measure(r *Runner, group []Cell) ([]Measurement, []error) {
	methods := make([]sampling.Method, len(group))
	for k, g := range group {
		methods[k] = g.Method
	}
	return r.measureShared(c.Workload, c.Machine, methods)
}

// alone is measure's result for a kind whose cells never join: its
// group is the one cell.
func alone[M any](m M, err error) ([]M, []error) { return []M{m}, []error{err} }

func (Cell) record(m Measurement) results.Record {
	return results.Record{Err: m.Err, PerRepeat: m.PerRepeat, Samples: m.Samples,
		Supported: m.Supported, Failed: m.Failed}
}

// served is the exact inverse of record over the measurement fields,
// which is what makes a resumed sweep's aggregate byte-identical to a
// fresh one.
func (Cell) served(rec results.Record) Measurement {
	return Measurement{
		Workload:  rec.Workload,
		Machine:   rec.Machine,
		Method:    rec.Method,
		Err:       rec.Err,
		PerRepeat: rec.PerRepeat,
		Samples:   rec.Samples,
		Supported: rec.Supported,
		Failed:    rec.Failed,
	}
}

// SweepStats reports how the cell path split a sweep's cells under its
// counting rule.
type SweepStats struct {
	// Cached is the number of cells served from the store.
	Cached int
	// Measured is the number of cells dispatched for measurement this
	// run, whatever the outcome: unsupported, failed or succeeded. Cells
	// a sweep timeout abandoned before dispatch count in neither field.
	Measured int
}

// countCells is the one place the cell path counts: StoreStats and the
// telemetry sink record the same events, so they cannot disagree.
func (r *Runner) countCells(measured, stored int) {
	r.mu.Lock()
	r.storeStats.Measured += measured
	r.storeStats.Cached += stored
	r.mu.Unlock()
	r.Telemetry.CountCells(uint64(measured), uint64(stored))
}

// serveCells is the cell path's first step: it returns the cells' results
// in order, served from st where present (each counted as stored), plus
// the indices of the cells st lacks. A nil st serves nothing. A missing
// cell holds a dead cell's result (Err -1, Failed) until it is measured,
// and keeps it if a timeout abandons it.
func serveCells[M any, C cellKind[M, C]](r *Runner, st results.Store, cells []C) ([]M, []int) {
	out := make([]M, len(cells))
	var misses []int
	for i, c := range cells {
		id := r.identity(c.coords())
		var rec results.Record
		ok := false
		if st != nil {
			rec, ok = st.Get(id.Key())
		}
		if !ok {
			rec = results.Record{Identity: id, Err: -1, Failed: true}
			misses = append(misses, i)
		}
		out[i] = c.served(rec)
	}
	r.countCells(0, len(cells)-len(misses))
	return out, misses
}

// groups splits misses, indices into cells in grid order, into the
// groups the cell path measures together: runs of consecutive misses
// that join. Grid order is workload-major, so the misses of one
// (workload, machine) are consecutive.
func groups[M any, C cellKind[M, C]](cells []C, misses []int) [][]int {
	var out [][]int
	for k, i := range misses {
		if k > 0 && cells[i].joins(cells[misses[k-1]]) {
			out[len(out)-1] = append(out[len(out)-1], i)
		} else {
			out = append(out, []int{i})
		}
	}
	return out
}

// pick returns xs at the indices idx, in order.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = xs[i]
	}
	return out
}

// measureCells is the cell path's second step, for one group of cells st
// lacks: it measures the group with one measure call and counts each cell
// as measured; each supported cell observes an equal share of the
// group's wall time; and each cell's record is appended to st (when
// non-nil) alone, only if its measurement succeeded. It returns the
// first failure in group order.
func measureCells[M any, C cellKind[M, C]](r *Runner, st results.Store, group []C) ([]M, error) {
	start := time.Now()
	ms, errs := group[0].measure(r, group)
	wall := time.Since(start)
	r.countCells(len(group), 0)
	recs := make([]results.Record, len(group))
	supported := 0
	for k, c := range group {
		recs[k] = c.record(ms[k])
		if recs[k].Supported {
			supported++
		}
	}
	for range supported {
		r.Telemetry.ObserveCellWall(wall / time.Duration(supported))
	}
	var first error
	for k, c := range group {
		id := r.identity(c.coords())
		err := errs[k]
		if err == nil && st != nil {
			rec := recs[k]
			rec.Identity, rec.Key = id, id.Key()
			err = st.Put(rec)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s/%s/%s: %w", id.Workload, id.Machine, id.Method, err)
		}
	}
	return ms, first
}

// runCells is the cell path for a whole grid: serve the store hits, then
// measure the misses on the worker pool, one group per job. Hits are
// served before any dispatch, so a timeout never abandons a stored cell.
// With a nil st every cell is measured and none is stored.
func runCells[M any, C cellKind[M, C]](r *Runner, st results.Store, opt SweepOptions, cells []C) ([]M, SweepStats, error) {
	out, misses := serveCells[M](r, st, cells)
	gs := groups[M](cells, misses)
	var measured atomic.Int64
	err := r.forEach(len(gs), opt, func(j int) error {
		measured.Add(int64(len(gs[j])))
		ms, err := measureCells[M](r, st, pick(cells, gs[j]))
		for k, i := range gs[j] {
			out[i] = ms[k]
		}
		return err
	})
	return out, SweepStats{Cached: len(cells) - len(misses), Measured: int(measured.Load())}, err
}

// SweepCached is Sweep with a persistent results store: cells whose
// content-addressed identity is already present in st are returned from
// the store without re-measuring, the rest are measured on the worker
// pool and appended to st as they complete. Failed cells are *not*
// stored, so a later resume retries them.
//
// Because measurements are pure functions of the cell identity (the same
// property that makes Sweep order-independent), serving a cell from the
// store is indistinguishable from re-measuring it: an interrupted sweep
// resumed against its store produces byte-identical aggregates to an
// uninterrupted run.
func (r *Runner) SweepCached(g Grid, st results.Store, opt SweepOptions) ([]Measurement, SweepStats, error) {
	return runCells[Measurement](r, st, opt, g.Cells())
}

// ServeCells is the cell path's serve step for a worker that schedules
// its own measurements (internal/sweepd): the cells present in st count
// as stored, and it returns the cells st lacks in the groups the cell
// path measures together, in grid order.
func (r *Runner) ServeCells(cells []Cell, st results.Store) [][]Cell {
	_, misses := serveCells[Measurement](r, st, cells)
	var out [][]Cell
	for _, g := range groups[Measurement](cells, misses) {
		out = append(out, pick(cells, g))
	}
	return out
}

// MeasureCells is the cell path's measure step for one group of accuracy
// cells st lacks, which must share a workload and machine (a group
// ServeCells returned, or any one cell): each cell counts as measured,
// and its record is appended to st alone, only if its measurement
// succeeded. It returns the first failure in group order.
func (r *Runner) MeasureCells(group []Cell, st results.Store) ([]Measurement, error) {
	for _, c := range group {
		if !c.joins(group[0]) {
			return nil, fmt.Errorf("experiments: cell %s/%s is not of the group of %s/%s",
				c.Workload.Name, c.Machine.Name, group[0].Workload.Name, group[0].Machine.Name)
		}
	}
	return measureCells[Measurement](r, st, group)
}

// StoreStats returns the served/measured split of every cell this
// Runner's cell path has handled, under the counting rule above. It is
// the observable behind `pmubench`'s end-of-run store summary: a fully
// warm resume reports zero measured. The telemetry sink's cells_measured
// and cells_stored count the same events.
func (r *Runner) StoreStats() SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeStats
}
