package main

import (
	"fmt"
	"io"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/workloads"
)

// defaultSeed is the seed whose canonical records each workload pins
// (pmubench's default -seed).
const defaultSeed = 42

// benchScale shrinks the Small scale's workloads tenfold so that one
// pass over a grid takes seconds and a run holds several passes. The
// period stays at Small's 2000 instructions: stride lengths, and so the
// engine's stride/event split, depend on the period, not on the
// workload length.
func benchScale(period uint64) experiments.Scale {
	return experiments.Scale{Name: "bench", Workload: 0.1, PeriodBase: period, Repeats: 1}
}

// workload is one benchmark workload: a fixed set of tables swept
// through the library at one scale.
type workload struct {
	name  string
	scale experiments.Scale
	// pinned is the sha256 of the canonical store records at defaultSeed
	// and this scale (see digest).
	pinned string
	// tables are swept in order, one pass measuring every table.
	tables []table
}

// table is one table of a workload: the Runner call that measures and
// renders it on the untraced path, and its cells in the order that call
// measures them, for the traced composition and the interp cross-check.
type table struct {
	title string
	cells []cell
	// sweep runs the table through the Runner with its Store attached
	// and renders it to w. It returns the per-cell outcomes the Runner
	// returned.
	sweep func(r *experiments.Runner, w io.Writer) ([]outcome, error)
	// render draws the table from its store records, the way pmureport
	// does; the traced path renders through it.
	render func(recs []results.Record) *report.Table
}

// outcome is one cell's result as the Runner returned it.
type outcome struct {
	supported, failed bool
}

// cell is one (workload, machine, method) grid point; tenants > 0 marks
// a scheduling cell measured with that many tenants at the default
// scheduler period.
type cell struct {
	spec    workloads.Spec
	mach    machine.Machine
	method  sampling.Method
	tenants int
}

// identity is the cell's results-store identity: the Runner's cell
// identity, with the tenant key on the method axis for scheduling cells.
func (c cell) identity(r *experiments.Runner) results.Identity {
	id := r.CellIdentity(experiments.Cell{Workload: c.spec, Machine: c.mach, Method: c.method})
	if c.tenants > 0 {
		id.Method = experiments.TenantKey(c.tenants, sched.DefaultPeriodCycles, c.method.Key)
	}
	return id
}

// supported reports whether the cell's machine can run its method.
func (c cell) supported() bool {
	_, ok := sampling.Resolve(c.method, c.mach)
	return ok
}

// workloadList is every workload the benchmark knows, in documentation
// order.
func workloadList() []workload {
	return []workload{
		{
			name:   "tables-cold",
			scale:  benchScale(2000),
			pinned: "13cef40e20cde50e30e764a91cf8edaa6a0c3488735059a99f6a1210e11062cf",
			tables: []table{
				matrixTable("table1", (*experiments.Runner).RunTable1),
				matrixTable("table2", (*experiments.Runner).RunTable2),
			},
		},
		{
			name:   "sample-dense",
			scale:  benchScale(250),
			pinned: "a7257a0ff873c7a43aae66bf1168b8a8817e6d8d8511ef49d402e162b701767a",
			tables: []table{matrixTable("table1", (*experiments.Runner).RunTable1)},
		},
		{
			name:   "tenants-sched",
			scale:  benchScale(2000),
			pinned: "792b0ab02f132372f1131c4536085c2c57fbf872763c1a1e0549f415c4e56888",
			tables: []table{tenantsTable()},
		},
	}
}

// workloadByName resolves a -workload value.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloadList() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// cells returns every cell of the workload, table by table.
func (w workload) cells() []cell {
	var out []cell
	for _, t := range w.tables {
		out = append(out, t.cells...)
	}
	return out
}

// specs returns the distinct workload specs of every table, in first-use
// order: the programs and references set-up prepares.
func (w workload) specs() []workloads.Spec {
	seen := map[string]bool{}
	var out []workloads.Spec
	for _, c := range w.cells() {
		if !seen[c.spec.Name] {
			seen[c.spec.Name] = true
			out = append(out, c.spec)
		}
	}
	return out
}

// matrixTable is one of the paper's accuracy matrices (Table 1 or 2),
// swept by the given Runner method over experiments.GridByName(grid).
func matrixTable(grid string, run func(*experiments.Runner) (*experiments.TableResult, error)) table {
	g, err := experiments.GridByName(grid)
	if err != nil {
		panic(err) // grid names are constants of this file
	}
	var cells []cell
	for _, c := range g.Cells() {
		cells = append(cells, cell{spec: c.Workload, mach: c.Machine, method: c.Method})
	}
	title := "Accuracy errors, " + grid
	return table{
		title: title,
		cells: cells,
		sweep: func(r *experiments.Runner, w io.Writer) ([]outcome, error) {
			tr, err := run(r)
			if err != nil {
				return nil, err
			}
			_, err = io.WriteString(w, tr.Table.String())
			out := make([]outcome, len(tr.Measurements))
			for i, m := range tr.Measurements {
				out[i] = outcome{supported: m.Supported, failed: m.Failed}
			}
			return out, err
		},
		render: func(recs []results.Record) *report.Table {
			return report.Matrix(title, recs, names(g.Workloads), machineNames(g.Machines), methodKeys(g.Methods))
		},
	}
}

// tenantsTable is the scheduling-noise table (Runner.RunTenants at the
// default tenant counts). Its rows and methods restate the experiment's
// fixed choice; the traced run's byte-identity check against the Runner
// path fails if they drift.
func tenantsTable() table {
	var specs []workloads.Spec
	for _, name := range []string{"LatencyBiased", "G4Box"} {
		s, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	var methods []sampling.Method
	for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			panic(err)
		}
		methods = append(methods, m)
	}
	var cells []cell
	for _, s := range specs {
		for _, mach := range machine.All() {
			for _, m := range methods {
				for _, n := range experiments.DefaultTenantCounts() {
					cells = append(cells, cell{spec: s, mach: mach, method: m, tenants: n})
				}
			}
		}
	}
	title := "Scheduling noise: accuracy error vs tenant count"
	return table{
		title: title,
		cells: cells,
		sweep: func(r *experiments.Runner, w io.Writer) ([]outcome, error) {
			t, ms, err := r.RunTenants(nil, 0)
			if err != nil {
				return nil, err
			}
			_, err = io.WriteString(w, t.String())
			out := make([]outcome, len(ms))
			for i, m := range ms {
				out[i] = outcome{supported: m.Supported, failed: m.Failed}
			}
			return out, err
		},
		render: func(recs []results.Record) *report.Table {
			return report.Matrix(title, recs, names(specs), machineNames(machine.All()), nil)
		},
	}
}

func names(specs []workloads.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func machineNames(ms []machine.Machine) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func methodKeys(ms []sampling.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key
	}
	return out
}
