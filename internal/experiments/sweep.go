package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pmutrust/internal/machine"
	"pmutrust/internal/pool"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// Grid enumerates a (workload × machine × method) experiment matrix —
// the shape of the paper's Tables 1 and 2 and of any full-factorial
// method comparison.
type Grid struct {
	Workloads []workloads.Spec
	Machines  []machine.Machine
	Methods   []sampling.Method
}

// Cell is one grid point.
type Cell struct {
	Workload workloads.Spec
	Machine  machine.Machine
	Method   sampling.Method
}

// Cells returns the grid's cells in canonical order: workloads outermost,
// then machines, then methods. Sweep results follow this order no matter
// how the cells were scheduled.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, len(g.Workloads)*len(g.Machines)*len(g.Methods))
	for _, spec := range g.Workloads {
		for _, mach := range g.Machines {
			for _, m := range g.Methods {
				cells = append(cells, Cell{Workload: spec, Machine: mach, Method: m})
			}
		}
	}
	return cells
}

// Size returns the number of cells in the grid.
func (g Grid) Size() int { return len(g.Workloads) * len(g.Machines) * len(g.Methods) }

// GridByName returns the cell grid of a matrix experiment of the
// experiment table (an entry with Rows) — the exact cells its run
// sweeps. The distributed sweep planner (internal/sweepd) partitions
// these grids, so the mapping from experiment name to cell set must stay
// identical between the single-process and sharded paths.
func GridByName(name string) (Grid, error) {
	var names []string
	for _, mat := range matrices {
		if mat.name == name {
			return matrixGrid(mat.rows()), nil
		}
		names = append(names, mat.name)
	}
	return Grid{}, fmt.Errorf("experiments: no cell grid for experiment %q (matrix experiments: %s)", name, strings.Join(names, ", "))
}

// SweepOptions bounds a sweep's parallelism and wall-clock time. The
// zero value inherits the Runner's Parallel and Timeout fields.
type SweepOptions struct {
	// Parallel is the worker count; <= 0 falls back to Runner.Parallel,
	// then to runtime.GOMAXPROCS(0).
	Parallel int
	// Timeout aborts the sweep after the given wall-clock time: cells
	// already running finish (cells are not interruptible), unstarted
	// cells are abandoned, and the sweep returns an error. A sweep whose
	// cells were all dispatched before the deadline completes normally.
	// 0 falls back to Runner.Timeout (0 = none).
	Timeout time.Duration
}

// Sweep measures every grid cell on a bounded worker pool and returns
// the measurements in Cells order: the cell path with no store. Because
// each cell's seeds derive from its identity and the Runner caches are
// single-flight, the result is bit-identical for any worker count. Cells
// whose measurement fails keep their partial Measurement in the slice;
// the first failure (in cell order) is returned as the error. On timeout
// an abandoned cell is a named no-result entry (Failed, Err -1),
// distinguishable from a genuinely unsupported cell, which has Failed
// false.
func (r *Runner) Sweep(g Grid, opt SweepOptions) ([]Measurement, error) {
	ms, _, err := runCells[Measurement](r, nil, opt, g.Cells())
	return ms, err
}

// opts returns the Runner's default sweep options; the internal table
// runners all dispatch through this so -parallel/-timeout apply
// uniformly.
func (r *Runner) opts() SweepOptions {
	return SweepOptions{Parallel: r.Parallel, Timeout: r.Timeout}
}

// flatIdx and splitIdx convert between a flat job index and the (outer,
// inner) coordinates of a grid whose inner axis is width wide. Table
// runners that interleave two sweep axes into one forEach index use this
// pair for both the job-side decode and the result-side lookup, so the
// two cannot drift apart.
func flatIdx(outer, inner, width int) int { return outer*width + inner }

func splitIdx(i, width int) (outer, inner int) { return i / width, i % width }

// forEach resolves the sweep options against the Runner's defaults and
// runs jobs 0..n-1 on the shared bounded worker pool (internal/pool):
// every job runs even when earlier ones fail (a sweep keeps its partial
// results), the returned error is the first failure by job index, and
// on timeout running jobs complete while unstarted ones are dropped.
func (r *Runner) forEach(n int, opt SweepOptions, job func(i int) error) error {
	workers := opt.Parallel
	if workers <= 0 {
		workers = r.Parallel
	}
	timeout := opt.Timeout
	if timeout == 0 {
		timeout = r.Timeout
	}
	err := pool.ForEach(n, workers, timeout, job)
	if errors.Is(err, pool.ErrTimeout) {
		// Keep pool.ErrTimeout in the chain so callers can errors.Is it.
		return fmt.Errorf("experiments: sweep timed out after %v (%w)", timeout, pool.ErrTimeout)
	}
	return err
}
