// Command pmureport regenerates the paper-shaped accuracy tables from a
// results store written by `pmubench -store`, and diffs two stores — the
// read side of the sweep/store/report pipeline. It never re-measures:
// everything renders from the persisted per-cell records, so reports are
// cheap, deterministic and reproducible from the artifact alone.
//
// Usage:
//
//	pmureport -store results.jsonl [-table kernels|apps|phased|ranking|factors|mux|tenants|all]
//	          [-markdown] [-csv] [-baseline classic]
//	pmureport -compare OLD.jsonl NEW.jsonl [-tol 0.05] [-markdown]
//	pmureport -telemetry FILE|DIR
//
// Wherever a store path is accepted, it may be a single JSONL file
// (`pmubench -store`) or a sweep directory written by `pmubench -serve`
// (its sharded cell files are merged and deduplicated on read) — so
// distributed and single-process runs render and diff interchangeably.
//
// Report mode renders the regenerated tables (kernel matrix, application
// matrix, per-machine method ranking, improvement factors — the analogs
// of the paper's accuracy tables) in canonical paper order, so the same
// store always produces the same bytes. Phased/bursty workload cells
// (written by `pmubench -experiment phased -store` or `-spec FILE
// -store`, workload Kind "phased") form their own row family rendered by
// -table phased: the accuracy matrix on non-stationary mixes, kept out
// of the paper-shaped kernel and application tables.
// Counter-multiplexing cells (written by `pmubench -experiment
// mux-events|mux-timeslice|mux-policy -store`, method keys "mux-*") are
// kept out of the accuracy tables and rendered by -table mux as their
// own matrix of exact-vs-scaled counting errors. Multi-tenant
// scheduling cells (written by `pmubench -experiment
// tenants|tenants-timeslice -store`, method keys "tn-*") likewise form
// their own family, rendered by -table tenants as the accuracy matrix
// under scheduling noise. -markdown and -csv
// switch the
// output format (plain aligned text by default); -csv emits a single
// rectangle, so it requires picking one table with -table.
//
// Compare mode diffs two stores cell-by-cell by (workload, machine,
// method): cells whose error grew by more than -tol, and cells that lost
// their measurement, are regressions. The exit status is 0 when no cell
// regressed, 1 on regression — wire it straight into CI.
//
// Telemetry mode renders a snapshot written by `pmubench -telemetry`
// (a single canonical JSON document), or a fleet's worth of them: given
// a sweep directory from `pmubench -serve` (or its telemetry/
// subdirectory directly), every per-worker snapshot is merged before
// rendering. The document is validated first — including the invariant
// that the engine fallback buckets sum exactly to the fallback total —
// so a corrupt or hand-edited snapshot fails loudly instead of
// rendering nonsense.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pmutrust/internal/machine"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sweepd"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// loadStore opens a results store by path, accepting all three shapes the
// write side produces: a JSONL file (`pmubench -store`), a sharded cell
// directory (results.LoadDir), or a whole sweep directory from
// `pmubench -serve` (rendered from its cells/ subdirectory, shard files
// merged and deduplicated on read).
func loadStore(path string) (results.Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return results.Load(path)
	}
	if cells := sweepd.CellsDir(path); dirExists(cells) {
		return results.LoadDir(cells)
	}
	return results.LoadDir(path)
}

func dirExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func main() {
	var (
		storePath = flag.String("store", "", "results store to render: a JSONL file from pmubench -store, or a sweep dir from pmubench -serve")
		table     = flag.String("table", "all", "which table to render: kernels, apps, phased, ranking, factors, mux, tenants or all")
		markdown  = flag.Bool("markdown", false, "emit Markdown instead of plain text")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of plain text (matrix shapes only keep their rectangle)")
		baseline  = flag.String("baseline", "classic", "baseline method for the factors table")
		compare   = flag.String("compare", "", "compare mode: OLD store path; the NEW store path is the positional argument")
		tol       = flag.Float64("tol", 0.05, "compare mode: error increase beyond which a cell counts as regressed")
		telePath  = flag.String("telemetry", "", "render a telemetry snapshot: a FILE from pmubench -telemetry, or a sweep dir from pmubench -serve (worker snapshots merged)")
	)
	flag.Parse()

	switch {
	case *telePath != "":
		if err := runTelemetry(*telePath); err != nil {
			fmt.Fprintf(os.Stderr, "pmureport: %v\n", err)
			os.Exit(2)
		}
	case *compare != "":
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "pmureport: -compare OLD.jsonl needs a positional NEW.jsonl argument")
			os.Exit(2)
		}
		newPath := flag.Arg(0)
		// The flag package stops parsing at the first positional, so
		// `-compare OLD.jsonl NEW.jsonl -tol 0.01 -markdown` leaves the
		// trailing flags unparsed; re-parse them (ExitOnError handles
		// bad flags, and a second positional is an error).
		if flag.NArg() > 1 {
			flag.CommandLine.Parse(flag.Args()[1:])
			if flag.NArg() != 0 {
				fmt.Fprintf(os.Stderr, "pmureport: unexpected argument %q after NEW.jsonl\n", flag.Arg(0))
				os.Exit(2)
			}
		}
		regressions, err := runCompare(*compare, newPath, *tol, *markdown, *csvOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmureport: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
	case *storePath != "":
		if err := runReport(*storePath, *table, *baseline, *markdown, *csvOut); err != nil {
			fmt.Fprintf(os.Stderr, "pmureport: %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "pmureport: one of -store, -compare or -telemetry is required")
		flag.Usage()
		os.Exit(2)
	}
}

// runTelemetry renders a telemetry snapshot document. A directory is
// treated as a sweep dir (its telemetry/ subdirectory, when present) and
// its per-worker snapshots are merged; a file is one snapshot. Either
// way the document is validated before rendering.
func runTelemetry(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if fi.IsDir() {
		dir := path
		if sub := telemetry.Dir(path); dirExists(sub) {
			dir = sub
		}
		var n int
		snap, n, err = telemetry.LoadDir(dir)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("%s: no telemetry snapshots", dir)
		}
	} else {
		snap, err = telemetry.ReadSnapshot(path)
		if err != nil {
			return err
		}
	}
	if err := snap.Validate(); err != nil {
		return err
	}
	fmt.Print(telemetry.RenderSummary(snap))
	return nil
}

// canonicalOrders returns the paper-order axes the renders use: the
// workload registry (kernels then apps), the three paper machines, the
// Table 3 method registry. Names a store holds beyond these are appended
// sorted by the report layer.
func canonicalOrders() (workloadOrder, machineOrder, methodOrder []string) {
	for _, s := range workloads.All() {
		workloadOrder = append(workloadOrder, s.Name)
	}
	for _, m := range machine.AllExtended() {
		machineOrder = append(machineOrder, m.Name)
	}
	for _, m := range sampling.Registry() {
		methodOrder = append(methodOrder, m.Key)
	}
	return
}

// split partitions records into the kernel, application, phased,
// multiplexing and tenant groups. Counter-multiplexing cells (method
// key "mux-*") and multi-tenant scheduling cells (method key "tn-*")
// route first regardless of workload; then registry Kind decides:
// kernels and apps form the paper's table pair, registered phased
// workloads (and any "Phased*"-named user spec measured via `pmubench
// -spec`) form the phased family; remaining unknown workloads land with
// the apps (user additions, which the paper treats as applications).
func split(recs []results.Record) (kernels, apps, phased, mux, tenants []results.Record) {
	kind := make(map[string]workloads.Kind)
	for _, s := range workloads.All() {
		kind[s.Name] = s.Kind
	}
	for _, rec := range recs {
		k, ok := kind[rec.Workload]
		switch {
		case strings.HasPrefix(rec.Method, "mux-"):
			mux = append(mux, rec)
		case strings.HasPrefix(rec.Method, "tn-"):
			tenants = append(tenants, rec)
		case ok && k == workloads.Kernel:
			kernels = append(kernels, rec)
		case ok && k == workloads.Phased,
			!ok && strings.HasPrefix(rec.Workload, "Phased"):
			phased = append(phased, rec)
		default:
			apps = append(apps, rec)
		}
	}
	return
}

// distinctConfigs returns the distinct non-cell configuration tuples
// (scale, workload scale, period, seed, repeats) present in a record
// set. A store normally holds exactly one; more means it was resumed
// under a different configuration, and any per-coordinate table would
// silently pick one record per cell — worth a loud warning.
func distinctConfigs(recs []results.Record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range recs {
		c := fmt.Sprintf("scale=%s workload_scale=%g period=%d seed=%d repeats=%d",
			r.Scale, r.WorkloadScale, r.PeriodBase, r.Seed, r.Repeats)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func runReport(storePath, table, baseline string, markdown, csvOut bool) error {
	st, err := loadStore(storePath)
	if err != nil {
		return err
	}
	recs := st.Records()
	if len(recs) == 0 {
		return fmt.Errorf("%s: store is empty", storePath)
	}
	if configs := distinctConfigs(recs); len(configs) > 1 {
		fmt.Fprintf(os.Stderr, "pmureport: warning: %s holds %d configurations; tables pick one record per cell:\n",
			storePath, len(configs))
		for _, c := range configs {
			fmt.Fprintf(os.Stderr, "  %s\n", c)
		}
	}
	kernels, apps, phased, mux, tenants := split(recs)
	wlo, mco, mto := canonicalOrders()

	var tables []*report.Table
	want := func(name string) bool { return table == "all" || table == name }
	if want("kernels") && len(kernels) > 0 {
		tables = append(tables, report.Matrix(
			"Regenerated Table 4: kernel accuracy errors (lower is better)", kernels, wlo, mco, mto))
	}
	if want("apps") && len(apps) > 0 {
		tables = append(tables, report.Matrix(
			"Regenerated Table 5: application accuracy errors (lower is better)", apps, wlo, mco, mto))
	}
	if want("phased") && len(phased) > 0 {
		t := report.Matrix(
			"Regenerated Table 9: phased/bursty workload accuracy errors (lower is better)",
			phased, wlo, mco, mto)
		t.Note = "Written by pmubench -experiment phased -store (or -spec FILE -store); " +
			"sampling accuracy on non-stationary event mixes — see docs/WORKLOADS.md."
		tables = append(tables, t)
	}
	if want("ranking") {
		acc := append(append([]results.Record(nil), kernels...), apps...)
		tables = append(tables, report.MethodRanking(
			"Regenerated Table 6: method trust ranking per machine", acc, mco, mto))
	}
	if want("factors") {
		acc := append(append([]results.Record(nil), kernels...), apps...)
		tables = append(tables, report.Factors(
			"Regenerated Table 7: accuracy improvement over "+baseline, baseline, acc, mto))
	}
	if want("mux") && len(mux) > 0 {
		// Mux columns are the zero-padded "mux-<policy>-nNN-tsNNNNN" keys,
		// which sort into (policy, events, timeslice) order on the sorted-
		// unknown-methods path of report.Matrix.
		t := report.Matrix(
			"Regenerated Table 8: multiplexing-induced counting error (mean |scaled-exact|/exact; lower is better)",
			mux, wlo, mco, nil)
		t.Note = "Written by pmubench -experiment mux-events|mux-timeslice|mux-policy -store; " +
			"cells compare perf-style scaled counts against the simulator's exact ground truth."
		tables = append(tables, t)
	}
	if want("tenants") && len(tenants) > 0 {
		// Tenant columns are the zero-padded "tn-nNN-tsNNNNN-<method>"
		// keys, which sort into (count, timeslice, method) order on the
		// sorted-unknown-methods path of report.Matrix.
		t := report.Matrix(
			"Regenerated Table 10: accuracy error under multi-tenant scheduling (lower is better)",
			tenants, wlo, mco, nil)
		t.Note = "Written by pmubench -experiment tenants|tenants-timeslice -store; " +
			"N tenants timeshare one simulated core with per-task PMU save/restore — see internal/sched."
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		return fmt.Errorf("no table %q in store (or unknown -table value)", table)
	}
	if csvOut && len(tables) > 1 {
		// Concatenated rectangles with different headers are not CSV;
		// make the caller pick one.
		return fmt.Errorf("-csv emits one rectangle: pick a single table with -table kernels|apps|phased|ranking|factors|mux|tenants")
	}
	for _, t := range tables {
		switch {
		case csvOut:
			fmt.Print(t.CSV())
		case markdown:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
	}
	return nil
}

func runCompare(oldPath, newPath string, tol float64, markdown, csvOut bool) (int, error) {
	oldSt, err := loadStore(oldPath)
	if err != nil {
		return 0, err
	}
	newSt, err := loadStore(newPath)
	if err != nil {
		return 0, err
	}
	_, regressions, t := report.CompareRecords(oldSt.Records(), newSt.Records(), tol)
	switch {
	case csvOut:
		fmt.Print(t.CSV())
	case markdown:
		fmt.Println(t.Markdown())
	default:
		fmt.Println(t.String())
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "pmureport: %d cell(s) regressed beyond tolerance %.4f\n", regressions, tol)
	}
	return regressions, nil
}
