// Command perfbench is the repository's end-to-end benchmark: it sweeps
// one fixed set of the paper's tables through the library in a single
// process, times the sweep, checks every record it produced, and prints
// one JSON result line. README.md in this directory describes the
// workloads, the metrics and what each layer metric should move.
//
//	bash perfbench/run.sh -workload tables-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run reports the end-to-end metrics of the untraced
// sweep; with -trace 1 it reruns the workload composed from the layers'
// public calls, records a span around each call, writes the spans and
// the per-layer ledger under -workdir/traces, and reports the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: tables-cold, sample-dense or tenants-sched")
		seed    = flag.Uint64("seed", defaultSeed, "base seed of every cell's random streams")
		seconds = flag.Int("seconds", 10, "how long the timed phase runs, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the run's stores and span files")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fail(fmt.Errorf("want -seconds >= 1, -trace 0 or 1 and no arguments, got %d, %d and %q", *seconds, *trace, flag.Args()))
	}
	res, err := run(w, options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workdir: *workdir,
	}, os.Stderr)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
