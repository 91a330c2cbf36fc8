// Command pmubench regenerates the paper's tables and the repository's
// ablation experiments.
//
// Usage:
//
//	pmubench [-experiment table1|table2|table3|factors|ipfix|ranking|
//	                      ablate-skid|ablate-period|ablate-lbr|ablate-burst|
//	                      ablate-rand|overhead|freq|lbr-contention|
//	                      stability|future-hw|mux-events|mux-timeslice|
//	                      mux-policy|mux|tenants|tenants-timeslice|
//	                      phased|spec|all]
//	         [-scale paper|small] [-seed N] [-markdown]
//	         [-parallel N] [-timeout D] [-json FILE]
//	         [-store FILE] [-resume] [-engine fast|interp|both]
//	         [-events LIST] [-timeslice N] [-mux-policy rr|priority]
//	         [-tenants LIST] [-switch-cost N] [-spec FILE]
//	         [-telemetry FILE] [-obs-addr ADDR] [-log-json]
//	pmubench -serve -sweep-dir DIR [-experiment table1|table2|phased]
//	         [-shards N] [-workers N] [-lease-ttl D] [-obs-addr ADDR]
//	         [...common flags]
//	pmubench -worker -sweep-dir DIR [-lease-ttl D] [-parallel N]
//	         [-engine fast|interp|both] [-log-json]
//
// Every experiment prints a table whose rows/columns mirror the paper's
// presentation. Each name above is one entry of the experiment table,
// experiments.Registry (internal/experiments/registry.go), which pmubench
// looks the -experiment value up in; "all" runs every entry but mux and
// spec, in table order. DESIGN.md records the scaling, the application
// analogs, the findings and the ablations behind them.
//
// Measurements dispatch through the parallel sweep layer of
// internal/experiments: -parallel bounds the worker pool (default
// GOMAXPROCS) and -timeout stops sweeps from dispatching new cells past
// the deadline (cells already running finish). Per-cell
// seeds derive from (seed, workload, machine, method, repeat), so the
// output is bit-identical at any -parallel value. -json FILE ("-" for
// stdout) additionally writes machine-readable results — the full
// per-cell measurement set for the matrix experiments — for the bench
// trajectory.
//
// -store FILE persists the matrix experiments' per-cell measurements to
// a JSONL results store as they complete, keyed by each cell's full
// configuration (internal/results). With -resume, records already in the
// store are served without re-measuring, making an interrupted sweep
// restart-safe: only the missing cells run, and the tables come out
// byte-identical to an uninterrupted run. Without -resume the store path
// must be new or empty (pmubench refuses to clobber accumulated
// results). cmd/pmureport renders and diffs store files. Alongside the
// store, pmubench keeps a FILE.refs sidecar memoizing each workload's
// ground-truth reference profile: references are a pure function of
// (workload, scale), so the sidecar is always opened for resume — even a
// fresh -store run serves references an earlier run at the same scale
// already collected, and a re-rendered sweep re-executes nothing.
//
// -engine selects the execution engine: "fast" (default) runs the
// block-stride fast-path executor, "interp" the per-instruction reference
// interpreter, and "both" runs every measurement under both engines and
// fails on any sample-stream divergence. The engines are bit-identical
// (the differential test harness enforces it), so tables, JSON artifacts
// and store fingerprints never depend on this flag — only wall-clock time
// does.
//
// The mux-* experiments exercise the virtualized multi-event PMU
// (counter multiplexing, internal/pmu Mux): mux-events sweeps the number
// of requested counting events, mux-timeslice the rotation timeslice,
// mux-policy round-robin vs priority scheduling — each rendering the mean
// exact-vs-scaled counting error per workload × machine. "-experiment
// mux" measures one explicit request list given by -events (a
// comma-separated pmu event list, e.g. "inst_retired,load,br_taken"),
// -timeslice (rotation timeslice in simulated cycles, 0 = default) and
// -mux-policy, and prints the full per-event exact/scaled accounting.
//
// -serve runs a matrix experiment as a sharded, resumable sweep service
// (internal/sweepd): the coordinator partitions the experiment's cell
// grid into -shards leased shards under -sweep-dir, spawns -workers
// local worker processes (0 = external workers attach on their own),
// streams progress/ETA to stderr, and — once every shard is done — renders
// the experiment from the merged shard files, measuring nothing itself.
// -worker joins an existing sweep directory from any process or host
// sharing the filesystem: it claims shards through expiring lease files
// (-lease-ttl bounds how long a dead worker blocks its shard) and exits
// when the whole sweep is complete. Because every cell is content-
// addressed, a distributed sweep — even one that loses workers mid-shard
// — renders byte-identically to a single-process run, and re-running
// -serve on an interrupted directory resumes instead of re-measuring.
// cmd/pmureport accepts the sweep directory anywhere it takes a store
// file.
//
// The tenants experiments schedule N copies of each workload on one
// simulated core under a CFS-style timeslice scheduler (internal/sched)
// with per-task PMU context save/restore, kernel-path event leakage and
// cross-tenant sample skid: "tenants" sweeps the tenant count (-tenants,
// a comma-separated list, default 1,2,4,8) and "tenants-timeslice" the
// scheduling period at a fixed four tenants. -switch-cost overrides the
// per-machine context-switch cost in simulated cycles (0 = each model's
// calibrated default); the cost is not part of a cell's store identity,
// so cells at a non-zero cost are never served from or written to
// -store. The n=1 column is collected by the unscheduled sampling path
// with identical seeds, so it is bit-identical to the plain accuracy
// tables.
//
// "-experiment phased" measures the registered phased/bursty workload
// family (the hand-built PhaseShift plus the spec-generated alternate,
// burst and ramp schedules — see docs/WORKLOADS.md) through the same
// workload × machine × method accuracy matrix as Tables 1 and 2; it is
// store-aware like them, and cmd/pmureport renders the stored rows as
// the phased table. -spec FILE measures a user-authored phased spec
// through that matrix instead — any spec file wlgen accepts.
//
// Observability (see docs/ARCHITECTURE.md "Observability"): every
// measurement feeds the telemetry sink (internal/telemetry) — engine
// fast-path/fallback counters, per-cell wall-time histograms, store and
// reference cache splits. -telemetry FILE writes the run's canonical
// snapshot document ("-" for stdout); cmd/pmureport -telemetry renders
// it. -obs-addr ADDR serves the observability plane over HTTP for the
// life of the process: /metrics (the JSON snapshot — in -serve mode
// merged across the fleet's dir/telemetry/ documents), /progress
// (machine-readable sweep progress/ETA in -serve mode) and net/http/pprof
// under /debug/pprof/. -log-json switches the structured diagnostic log
// from human-readable text to JSON lines; either way each record carries
// the run ID that also names snapshots and sweep plans, tying logs,
// metrics and stored results to one run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"pmutrust/internal/experiments"
	"pmutrust/internal/pmu"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sweepd"
	"pmutrust/internal/telemetry"
)

// jsonResult is one experiment's machine-readable record.
type jsonResult struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
	Parallel   int    `json:"parallel"`
	// Output contributes the per-cell results of the grid experiments;
	// experiments that only render a table omit them.
	experiments.Output
	// Table is the rendered table, for humans reading the artifact.
	Table string `json:"table"`
}

// flagConflict rejects the flag combinations pmubench refuses before
// running anything.
func flagConflict(serve, worker, resume bool, sweepDir, storePath, jsonPath, teleFile string) error {
	switch {
	case serve && worker:
		return errors.New("-serve and -worker are mutually exclusive")
	case (serve || worker) && sweepDir == "":
		return errors.New("-serve/-worker require -sweep-dir")
	case resume && storePath == "":
		return errors.New("-resume requires -store")
	case jsonPath == "-" && teleFile == "-":
		// stdout carries at most one document.
		return errors.New("-json - and -telemetry - cannot both write to stdout")
	}
	return nil
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (see package comment)")
		scaleName  = flag.String("scale", "paper", "experiment scale: paper or small")
		seed       = flag.Uint64("seed", 42, "base random seed")
		markdown   = flag.Bool("markdown", false, "emit Markdown instead of plain text")
		parallel   = flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-experiment bound: stop dispatching new sweep cells after this wall-clock time; running cells finish (0 = none)")
		jsonPath   = flag.String("json", "", "write machine-readable results to FILE (\"-\" for stdout)")
		storePath  = flag.String("store", "", "persist per-cell matrix measurements to a JSONL results store at FILE")
		resume     = flag.Bool("resume", false, "with -store: serve cells already in the store instead of re-measuring (without it the store must be new or empty)")
		engineName = flag.String("engine", "fast", "execution engine: fast, interp, or both (run both and fail on divergence)")
		eventsFlag = flag.String("events", "", "comma-separated counting-event list for -experiment mux (e.g. inst_retired,load,br_taken)")
		timeslice  = flag.Uint64("timeslice", 0, "multiplexer rotation timeslice in simulated cycles (0 = default)")
		muxPolicy  = flag.String("mux-policy", "rr", "multiplexer rotation policy: rr or priority")
		tenantsF   = flag.String("tenants", "", "comma-separated simulated tenant counts for -experiment tenants (empty = 1,2,4,8)")
		switchCost = flag.Uint64("switch-cost", 0, "context-switch cost in simulated cycles for the tenants experiments (0 = per-machine default; a non-zero cost is not part of the cell identity, so those cells are never stored)")
		specFile   = flag.String("spec", "", "measure this phased spec file through the accuracy matrix instead of a built-in experiment")
		serve      = flag.Bool("serve", false, "coordinator mode: run the matrix experiment as a sharded sweep under -sweep-dir")
		workerMode = flag.Bool("worker", false, "worker mode: claim and measure shards of the sweep under -sweep-dir, then exit")
		sweepDir   = flag.String("sweep-dir", "", "shared sweep directory for -serve / -worker")
		shards     = flag.Int("shards", 0, "with -serve: shard count for the cell grid (0 = 4 per worker, min 8)")
		workersN   = flag.Int("workers", 4, "with -serve: local worker processes to spawn (0 = external workers only)")
		leaseTTL   = flag.Duration("lease-ttl", sweepd.DefaultLeaseTTL, "shard lease time-to-live; a dead worker's shard is reclaimable after this long")
		obsAddr    = flag.String("obs-addr", "", "serve the HTTP observability plane (/metrics, /progress, /debug/pprof/) on this address, e.g. localhost:9090")
		logJSON    = flag.Bool("log-json", false, "emit structured diagnostic logs as JSON lines instead of text")
		teleFile   = flag.String("telemetry", "", "write the run's telemetry snapshot to FILE (\"-\" for stdout); render with pmureport -telemetry")
	)
	flag.Parse()
	logger := telemetry.NewLogger(os.Stderr, *logJSON)
	if err := flagConflict(*serve, *workerMode, *resume, *sweepDir, *storePath, *jsonPath, *teleFile); err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}
	engine, err := sampling.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}
	muxEvents, err := pmu.ParseEventList(*eventsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}
	policy, err := pmu.MuxPolicyByName(*muxPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}
	tenantCounts, err := parseTenantCounts(*tenantsF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}

	// Worker mode ignores the experiment flags entirely: scale, seed and
	// cells all come from the sweep directory's plan, so every fleet
	// member measures identical content-addressed cells no matter how it
	// was invoked.
	if *workerMode {
		w := &sweepd.Worker{
			Dir:      *sweepDir,
			TTL:      *leaseTTL,
			Parallel: *parallel,
			Engine:   engine,
			Logger:   logger,
		}
		stats, err := w.Run()
		// The summary is a projection of the worker's persisted telemetry
		// snapshot (sweepd.StatsFromSnapshot), so this line and the
		// coordinator's /metrics document can never disagree.
		logger.Info("worker summary",
			"shards_completed", stats.ShardsCompleted,
			"leases_taken", stats.ShardsTaken,
			"cells_measured", stats.Measured,
			"cells_served", stats.Served,
			"refs_collected", stats.RefsCollected,
			"refs_served", stats.RefsServed)
		if err != nil {
			logger.Error("worker failed", "err", err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
		os.Exit(2)
	}
	r := experiments.NewRunner(scale, *seed)
	r.Parallel = *parallel
	r.Timeout = *timeout
	r.Engine = engine
	// Every measurement this process makes feeds the sink; the run ID
	// ties its logs, snapshot file and obs-plane documents together (in
	// -serve mode it becomes the plan fingerprint the fleet shares).
	sink := &telemetry.Sink{}
	r.Telemetry = sink
	runID := telemetry.DeriveRunID(*experiment, scale.Name, strconv.FormatUint(*seed, 10), *engineName)

	// obsServe starts the HTTP observability plane when -obs-addr is set;
	// it runs for the life of the process.
	obsServe := func(snapshot func() telemetry.Snapshot, progress func() (any, bool)) {
		if *obsAddr == "" {
			return
		}
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: -obs-addr: %v\n", err)
			os.Exit(2)
		}
		logger.Info("observability plane listening", "addr", ln.Addr().String(), "run_id", runID)
		go http.Serve(ln, telemetry.Handler(snapshot, progress))
	}

	var store, refStore results.Store
	if *storePath != "" {
		if *serve {
			fmt.Fprintln(os.Stderr, "pmubench: -serve keeps its results under -sweep-dir; it cannot be combined with -store")
			os.Exit(2)
		}
		var err error
		if *resume {
			store, err = results.Open(*storePath)
		} else {
			// Refuse to clobber accumulated results: truncating is only
			// safe on a path the user has not already filled (e.g. a
			// non-matrix experiment with -store would otherwise wipe
			// the file and write nothing back).
			if fi, serr := os.Stat(*storePath); serr == nil && fi.Size() > 0 {
				fmt.Fprintf(os.Stderr, "pmubench: store %s already has results; use -resume to extend it or remove the file first\n", *storePath)
				os.Exit(2)
			}
			store, err = results.Create(*storePath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
			os.Exit(2)
		}
		r.Store = store
		// The reference memo rides in a sidecar file. Unlike the store
		// itself it is always opened for resume: ground truth is a pure
		// function of (workload, scale), never of seed or method, so a
		// stale sidecar is impossible by construction.
		refs, err := results.Open(*storePath + ".refs")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: %v\n", err)
			os.Exit(2)
		}
		refStore = refs
		r.RefStore = refs
	}

	// Coordinator mode: run the distributed sweep to completion, then
	// attach the merged shard files as the runner's store and fall through
	// to the normal experiment path — the final render is served entirely
	// from worker-written records (the store summary proves it:
	// measured=0), and any cell the fleet failed on is measured here.
	storeLabel := *storePath
	if *serve {
		if *specFile != "" {
			fmt.Fprintln(os.Stderr, "pmubench: -serve runs the built-in matrix experiments; -spec is not supported")
			os.Exit(2)
		}
		grid, err := experiments.GridByName(*experiment)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: -serve: %v\n", err)
			os.Exit(2)
		}
		nshards := *shards
		if nshards <= 0 {
			nshards = 4 * *workersN
			if nshards < 8 {
				nshards = 8
			}
		}
		coord := &sweepd.Coordinator{
			Dir:      *sweepDir,
			Plan:     sweepd.NewPlan(*experiment, scale, *seed, grid, nshards),
			Workers:  *workersN,
			Progress: os.Stderr,
			Logger:   logger,
		}
		// The plan fingerprint is the sweep's run ID: the whole fleet logs
		// and persists telemetry under it.
		runID = coord.Plan.Fingerprint
		// /metrics serves the fleet view.
		obsServe(func() telemetry.Snapshot {
			return fleetSnapshot(*sweepDir, sink, runID, logger)
		}, func() (any, bool) {
			p, ok := coord.LastProgress()
			return p, ok
		})
		if *workersN > 0 {
			exe, err := os.Executable()
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmubench: -serve: %v\n", err)
				os.Exit(2)
			}
			coord.WorkerCmd = func(i int) *exec.Cmd {
				cmd := exec.Command(exe, "-worker",
					"-sweep-dir", *sweepDir,
					"-lease-ttl", leaseTTL.String(),
					"-parallel", strconv.Itoa(*parallel),
					"-engine", *engineName)
				cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
				return cmd
			}
		}
		if err := coord.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: -serve: %v\n", err)
			os.Exit(1)
		}
		st, err := results.OpenDir(sweepd.CellsDir(*sweepDir), "render")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: -serve: %v\n", err)
			os.Exit(1)
		}
		store = st
		storeLabel = *sweepDir
		r.Store = store
		// The render pass re-measures any cell the fleet failed on; its
		// references come from the fleet's shared memo under the sweep dir.
		refs, err := results.OpenDir(sweepd.RefsDir(*sweepDir), "render")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: -serve: %v\n", err)
			os.Exit(1)
		}
		refStore = refs
		r.RefStore = refs
	}
	if !*serve {
		// Standalone runs serve their own sink; no sweep means no
		// /progress document (the endpoint answers 404).
		obsServe(func() telemetry.Snapshot { return sink.Snapshot(runID) },
			func() (any, bool) { return nil, false })
	}

	name := *experiment
	if *specFile != "" {
		// A user-authored spec is its own experiment: measure its matrix
		// and nothing else.
		name = "spec"
	}
	in := experiments.Inputs{
		Events: muxEvents, Timeslice: *timeslice, Policy: policy,
		Tenants: tenantCounts, SwitchCost: *switchCost, Spec: *specFile,
	}
	jsonResults := []jsonResult{}
	exps, err := experiments.Select(name)
	for _, e := range exps {
		var out experiments.Output
		if out, err = e.Run(r, in); err != nil {
			name = e.Name
			break
		}
		// stdout carries at most one document: "-json -" or "-telemetry -"
		// suppress the human tables.
		if *jsonPath != "-" && *teleFile != "-" {
			if *markdown {
				fmt.Println(out.Table.Markdown())
			} else {
				fmt.Println(out.Table.String())
			}
		}
		if *jsonPath != "" {
			jsonResults = append(jsonResults, jsonResult{
				Experiment: e.Name, Scale: scale.Name, Seed: *seed, Parallel: *parallel,
				Output: out, Table: out.Table.String(),
			})
		}
	}
	exitCode := 0
	if err != nil {
		logger.Error("experiment failed", "experiment", name, "run_id", runID, "err", err)
		exitCode = 1
	}

	// The JSON document is written even after a mid-run failure, so a
	// long multi-experiment run keeps the results it already collected.
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, jsonResults); err != nil {
			fmt.Fprintf(os.Stderr, "pmubench: json: %v\n", err)
			exitCode = 1
		}
	}
	if store != nil {
		// The served/measured split is the resume observable: a fully
		// warm resume reports measured=0.
		stats := r.StoreStats()
		logger.Info("store summary", "store", storeLabel, "run_id", runID,
			"records", store.Len(), "served", stats.Cached, "measured", stats.Measured)
		if err := store.Close(); err != nil {
			logger.Error("store close failed", "err", err)
			exitCode = 1
		}
	}
	if refStore != nil {
		rs := r.RefStats()
		logger.Info("refs summary", "run_id", runID, "served", rs.Cached, "collected", rs.Measured)
		if err := refStore.Close(); err != nil {
			logger.Error("refs close failed", "err", err)
			exitCode = 1
		}
	}
	// The snapshot is written even after a mid-run failure, like -json:
	// partial telemetry is still telemetry.
	if *teleFile != "" {
		if err := writeTelemetry(*teleFile, *sweepDir, *serve, sink, runID, logger); err != nil {
			logger.Error("telemetry write failed", "err", err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// writeTelemetry writes this run's canonical snapshot document; in
// -serve mode the fleet's persisted worker snapshots are merged in, so
// the file accounts for cells measured by every process of the sweep.
func writeTelemetry(path, sweepDir string, serve bool, sink *telemetry.Sink, runID string, logger *slog.Logger) error {
	snap := sink.Snapshot(runID)
	if serve {
		snap = fleetSnapshot(sweepDir, sink, runID, logger)
	}
	out, err := snap.MarshalCanonical()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// fleetSnapshot is the fleet view of a -serve sweep: every worker
// snapshot persisted under sweepDir, merged with this process's own
// counters, under runID. A fleet that fails to load is logged and
// contributes nothing: LoadDir then returns the zero snapshot, which
// merges as the identity.
func fleetSnapshot(sweepDir string, sink *telemetry.Sink, runID string, logger *slog.Logger) telemetry.Snapshot {
	fleet, _, err := telemetry.LoadDir(telemetry.Dir(sweepDir))
	if err != nil {
		logger.Warn("telemetry merge failed", "err", err)
	}
	snap := fleet.Merge(sink.Snapshot(runID))
	if snap.RunID == "" {
		snap.RunID = runID
	}
	return snap
}

// parseTenantCounts parses the -tenants flag: a comma-separated list of
// positive tenant counts, empty meaning the experiment default.
func parseTenantCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-tenants: bad count %q (want positive integers, e.g. 1,2,4,8)", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func writeJSON(path string, results []jsonResult) error {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
