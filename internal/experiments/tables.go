package experiments

import (
	"fmt"

	"pmutrust/internal/analysis"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// TableResult pairs the rendered table with the raw measurements so tests
// can assert the paper's qualitative findings on the same data users see.
type TableResult struct {
	Table *report.Table
	// Cells[workload][machine][method] is the measured accuracy error;
	// -1 marks unsupported combinations.
	Cells map[string]map[string]map[string]float64
	// Measurements holds the full per-cell results in Grid.Cells order
	// (workload, then machine, then method) — the machine-readable form
	// behind the rendered table.
	Measurements []Measurement
}

// Get returns the error for (workload, machine, method key); -1 when
// missing or unsupported.
func (tr *TableResult) Get(workload, mach, method string) float64 {
	if m1, ok := tr.Cells[workload]; ok {
		if m2, ok := m1[mach]; ok {
			if v, ok := m2[method]; ok {
				return v
			}
		}
	}
	return -1
}

// accuracyMatrix is one workload × machine × method accuracy table:
// Tables 1 and 2, the phased table, or a -spec file's matrix. Its rows
// are the only thing that differs between them; matrixGrid crosses the
// rows with every machine and method. name is its experiment name, empty
// for a -spec file's matrix.
type accuracyMatrix struct {
	name, title, note string
	rows              func() []workloads.Spec
}

// matrices is the rows table of the accuracy matrices a sweep can shard.
// GridByName resolves a grid here and the experiment table's matrix
// entries are built from the same values, so asking for a grid reaches
// no run function.
var matrices = []accuracyMatrix{table1Matrix, table2Matrix, phasedMatrix}

var (
	table1Matrix = accuracyMatrix{
		name:  "table1",
		title: "Table 1: sampling-method accuracy errors on kernels (lower is better)",
		note:  "\"-\" = method unsupported on machine (no LBR/PEBS on Magny-Cours, no PDIR on Westmere: lowered or skipped per §4.2).",
		rows:  workloads.Kernels,
	}
	table2Matrix = accuracyMatrix{
		name:  "table2",
		title: "Table 2: errors per machine/application (lower is better)",
		note:  "Applications: SPEC CPU2006 enterprise-proxy subset analogs + FullCMS analog (see DESIGN.md for the substitution).",
		rows:  workloads.Apps,
	}
)

// matrixGrid is the grid of every accuracy matrix: the workload rows ×
// every machine × every sampling method. runMatrix and GridByName both
// build their grids here, so a single-process run and a sharded sweep
// cover the same cells.
func matrixGrid(rows []workloads.Spec) Grid {
	return Grid{Workloads: rows, Machines: machine.All(), Methods: sampling.Registry()}
}

// runMatrix measures every cell of mat's grid through the parallel sweep
// layer — store-aware when the Runner has a results store attached — and
// renders one row per workload × machine, one column per method: the
// layout of the paper's Tables 1 and 2. Rendering walks the measurements
// in canonical grid order, so the table is identical at any worker count
// and whether cells were measured or served from the store.
func (r *Runner) runMatrix(mat accuracyMatrix) (*TableResult, error) {
	g := matrixGrid(mat.rows())
	ms, _, err := runCells[Measurement](r, r.Store, r.opts(), g.Cells())
	if err != nil {
		return nil, err
	}

	headers := []string{"workload", "machine"}
	for _, m := range g.Methods {
		headers = append(headers, m.Key)
	}
	t := report.New(mat.title, headers...)
	t.Note = mat.note
	tr := &TableResult{Table: t, Cells: make(map[string]map[string]map[string]float64), Measurements: ms}

	i := 0
	for _, spec := range g.Workloads {
		tr.Cells[spec.Name] = make(map[string]map[string]float64)
		for _, mach := range g.Machines {
			tr.Cells[spec.Name][mach.Name] = make(map[string]float64)
			row := []string{spec.Name, mach.Name}
			for _, m := range g.Methods {
				meas := ms[i]
				i++
				tr.Cells[spec.Name][mach.Name][m.Key] = meas.Err
				row = append(row, report.Fmt(meas.Err))
			}
			t.AddRow(row...)
		}
	}
	return tr, nil
}

// RunTable1 reproduces Table 1: accuracy errors of all sampling methods on
// the four designated kernels, per machine (lower is better).
func (r *Runner) RunTable1() (*TableResult, error) { return r.runMatrix(table1Matrix) }

// RunTable2 reproduces Table 2: accuracy errors per machine/application.
func (r *Runner) RunTable2() (*TableResult, error) { return r.runMatrix(table2Matrix) }

// RunTable3 renders the method taxonomy (the paper's appendix Table 3).
// It is a documentation table: no measurement involved.
func RunTable3() *report.Table {
	t := report.New("Table 3: overview of reviewed sampling methods",
		"method", "event", "mechanism", "period", "randomization", "comment", "drawback")
	for _, m := range sampling.Registry() {
		rand := "no"
		if m.Randomize {
			rand = "yes"
		}
		t.AddRow(m.Key, m.Event.String(), m.Precision.String(),
			m.PeriodKind.String(), rand, m.Comment, m.Drawback)
	}
	return t
}

// FactorsResult summarizes the improvement-factor claims of §5.1/§5.2.
type FactorsResult struct {
	Table *report.Table
	// KernelLBROverClassic holds per kernel × Intel machine the factor by
	// which LBR improves on classic ("up to 18x, 3-6x on average").
	KernelLBROverClassic []float64
	// AppLBROverClassic and AppLBROverPrecise are the Table 2 derived
	// factors ("4-5x over classic, 1-10x over precise").
	AppLBROverClassic, AppLBROverPrecise []float64
}

// RunFactors derives the paper's improvement factors from the Table 1 and
// Table 2 matrices.
func (r *Runner) RunFactors(t1, t2 *TableResult) *FactorsResult {
	fr := &FactorsResult{}
	intel := []string{"Westmere", "IvyBridge"}

	t := report.New("Improvement factors (derived from Tables 1 and 2)",
		"scope", "comparison", "geomean", "min", "max")

	collect := func(tr *TableResult, specs []workloads.Spec, base, better string) []float64 {
		var out []float64
		for _, spec := range specs {
			for _, mach := range intel {
				b := tr.Get(spec.Name, mach, base)
				v := tr.Get(spec.Name, mach, better)
				if b > 0 && v > 0 {
					out = append(out, analysis.ImprovementFactor(b, v))
				}
			}
		}
		return out
	}

	fr.KernelLBROverClassic = collect(t1, workloads.Kernels(), "classic", "lbr")
	fr.AppLBROverClassic = collect(t2, workloads.Apps(), "classic", "lbr")
	fr.AppLBROverPrecise = collect(t2, workloads.Apps(), "precise", "lbr")

	addRow := func(scope, cmp string, xs []float64) {
		if len(xs) == 0 {
			t.AddRow(scope, cmp, "-", "-", "-")
			return
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		t.AddRow(scope, cmp, report.FmtFactor(stats.GeoMean(xs)),
			report.FmtFactor(lo), report.FmtFactor(hi))
	}
	addRow("kernels (Intel)", "lbr vs classic", fr.KernelLBROverClassic)
	addRow("apps (Intel)", "lbr vs classic", fr.AppLBROverClassic)
	addRow("apps (Intel)", "lbr vs precise", fr.AppLBROverPrecise)
	t.Note = "Paper: LBR reduces kernel errors up to 18x (3-6x average); on apps 4-5x over classic and 1-10x over precise."
	fr.Table = t
	return fr
}

// IPFixResult is the §5.2 side experiment: on FullCMS, a precisely
// distributed event with the LBR IP+1 offset correction (but not full LBR
// profiles) improves ~5x over classic.
type IPFixResult struct {
	ClassicErr, FixedErr, Factor float64
}

// RunIPFix measures the FullCMS IP-fix side experiment on Ivy Bridge.
// Its two cells are Table 2 cells, sent through the cell path as one
// group: stored, resumed and counted like the table's.
func (r *Runner) RunIPFix() (*report.Table, *IPFixResult, error) {
	spec, err := workloads.ByName("FullCMS")
	if err != nil {
		return nil, nil, err
	}
	cells := make([]Cell, 2)
	for i, key := range []string{"classic", "pdir+ipfix"} {
		m, err := sampling.MethodByKey(key)
		if err != nil {
			return nil, nil, err
		}
		cells[i] = Cell{Workload: spec, Machine: machine.IvyBridge(), Method: m}
	}
	ms, _, err := runCells[Measurement](r, r.Store, r.opts(), cells)
	if err != nil {
		return nil, nil, err
	}
	mc, mf := ms[0], ms[1]
	res := &IPFixResult{
		ClassicErr: mc.Err,
		FixedErr:   mf.Err,
		Factor:     analysis.ImprovementFactor(mc.Err, mf.Err),
	}
	t := report.New("FullCMS on Ivy Bridge: precise-distribution + LBR IP+1 fix vs classic (§5.2)",
		"method", "error", "improvement")
	t.AddRow("classic", report.Fmt(mc.Err), "1.0x")
	t.AddRow("pdir+ipfix", report.Fmt(mf.Err), report.FmtFactor(res.Factor))
	t.Note = "Paper reports ~5x average per-basic-block accuracy improvement for this combination."
	return t, res, nil
}

// RankingResult is the §5.2 ordering observation: no method reproduces the
// FullCMS top-10 function ranking exactly.
type RankingResult struct {
	// ExactByMethod maps method key to whether the top-10 matched exactly
	// on any machine that supports it.
	ExactByMethod map[string]bool
}

// RunRanking evaluates top-10 function-ranking agreement for FullCMS
// across all methods and machines.
func (r *Runner) RunRanking() (*report.Table, *RankingResult, error) {
	spec, err := workloads.ByName("FullCMS")
	if err != nil {
		return nil, nil, err
	}
	p := r.Workload(spec)
	reference, err := r.Reference(spec)
	if err != nil {
		return nil, nil, err
	}
	refRank := analysis.RefFunctionRanking(reference)

	t := report.New("FullCMS top-10 function ranking agreement (§5.2)",
		"machine", "method", "exact order", "set overlap", "kendall tau")
	res := &RankingResult{ExactByMethod: make(map[string]bool)}

	for _, mach := range machine.All() {
		for _, m := range sampling.Registry() {
			if _, ok := sampling.Resolve(m, mach); !ok {
				continue
			}
			run, err := sampling.Collect(p, mach, m, r.collectOptions(r.Seed))
			if err != nil {
				return nil, nil, err
			}
			bp, _, err := lbr.Profile(p, run)
			if err != nil {
				return nil, nil, err
			}
			ra := analysis.CompareRankings(bp.ToFunctions().Ranking(), refRank, 10)
			exact := "no"
			if ra.ExactOrder {
				exact = "YES"
				res.ExactByMethod[m.Key] = true
			}
			t.AddRow(mach.Name, m.Key, exact,
				fmt.Sprintf("%.0f%%", 100*ra.SetOverlap),
				fmt.Sprintf("%.2f", ra.KendallTau))
		}
	}
	t.Note = "Paper: none of the methods produces the top 10 FullCMS functions in the right order."
	return t, res, nil
}
