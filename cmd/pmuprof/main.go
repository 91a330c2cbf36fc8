// Command pmuprof profiles one workload with one sampling method on one
// machine and prints the resulting profile next to the exact reference —
// the interactive view of what the experiment harness scores in bulk. The
// profile is repeat 0 of that grid cell, so at a table's scale, period and
// seed the accuracy error it prints is the one the table prints.
//
// Usage:
//
//	pmuprof -workload FullCMS [-machine IvyBridge] [-method lbr]
//	        [-scale 1.0] [-period 4000] [-seed 42] [-top 15] [-blocks]
//	        [-trace N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pmutrust/internal/analysis"
	"pmutrust/internal/cpu"
	"pmutrust/internal/experiments"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/report"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/trace"
	"pmutrust/internal/workloads"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name (see wlgen -list)")
		machineName  = flag.String("machine", "IvyBridge", "machine: MagnyCours, Westmere or IvyBridge")
		methodKey    = flag.String("method", "pdir+ipfix", "sampling method key (see pmubench -experiment table3)")
		scale        = flag.Float64("scale", 1.0, "workload scale factor")
		period       = flag.Uint64("period", 4000, "base sampling period (instructions)")
		seed         = flag.Uint64("seed", 42, "random seed")
		top          = flag.Int("top", 15, "number of functions to print")
		blocks       = flag.Bool("blocks", false, "also print per-block detail for the hottest function")
		traceDepth   = flag.Int("trace", 0, "dump the last N retirements with burst markers (0 = off)")
	)
	flag.Parse()
	if *workloadName == "" {
		fmt.Fprintln(os.Stderr, "pmuprof: -workload is required; available:")
		for _, s := range workloads.All() {
			fmt.Fprintf(os.Stderr, "  %-14s (%s) %s\n", s.Name, s.Kind, s.Description)
		}
		os.Exit(2)
	}
	if *top < 0 {
		fmt.Fprintf(os.Stderr, "pmuprof: -top must not be negative, got %d\n", *top)
		os.Exit(2)
	}
	if err := run(os.Stdout, *workloadName, *machineName, *methodKey, *scale, *period, *seed, *top, *blocks, *traceDepth); err != nil {
		fmt.Fprintf(os.Stderr, "pmuprof: %v\n", err)
		os.Exit(1)
	}
}

// fallbackLine renders the non-zero fallback buckets as "key=N ..." in
// key order, or "none".
func fallbackLine(buckets map[string]uint64) string {
	var keys []string
	for k, v := range buckets {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "none"
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, buckets[k])
	}
	return strings.Join(parts, " ")
}

// run profiles repeat 0 of the named cell and writes the report to w.
func run(w io.Writer, workloadName, machineName, methodKey string, scale float64, period, seed uint64, top int, blocks bool, traceDepth int) error {
	if !(scale > 0) { // NaN too
		return fmt.Errorf("scale must be positive, got %v", scale)
	}
	spec, err := workloads.ByName(workloadName)
	if err != nil {
		return err
	}
	mach, err := machine.ByName(machineName)
	if err != nil {
		return err
	}
	method, err := sampling.MethodByKey(methodKey)
	if err != nil {
		return err
	}

	r := experiments.NewRunner(experiments.Scale{Workload: scale, PeriodBase: period, Repeats: 1}, seed)
	// The sink shares the experiment harness's telemetry counters, so the
	// engine line below is computed by the same instrumentation the
	// observability plane serves — no CLI-local accounting.
	r.Telemetry = &telemetry.Sink{}
	errVal, run, err := r.MeasureOnce(spec, mach, method, r.RepeatSeed(spec, mach, method, 0))
	if err != nil {
		return err
	}
	p := r.Workload(spec)
	reference, err := r.Reference(spec)
	if err != nil {
		return err
	}

	bp, ds, err := lbr.Profile(p, run)
	if err != nil {
		return err
	}
	if run.Method.UseLBRStack {
		fmt.Fprintf(w, "LBR decode: %d stacks, %d segments, %d malformed\n",
			ds.Stacks, ds.Segments, ds.Malformed)
	}

	fmt.Fprintf(w, "workload %s on %s via %s (resolved: event=%s mechanism=%s period=%d)\n",
		spec.Name, mach, method.Key, run.Method.Event, run.Method.Precision, run.Period)
	e := r.Telemetry.Snapshot("").Engine
	fmt.Fprintf(w, "run: %d instructions (%d fast-path in %d strides, %d event-mode), %d cycles (IPC %.2f), %d samples, %d dropped PMIs\n",
		e.StrideInstrs+e.EventInstrs, e.StrideInstrs, e.Strides, e.EventInstrs,
		run.CPU.Cycles, run.CPU.IPC(), len(run.Samples), run.DroppedPMIs)
	fmt.Fprintf(w, "engine: %d fallbacks (%s), %d fused pairs\n",
		e.FallbackTotal, fallbackLine(e.Fallbacks), e.FusedPairs)
	fmt.Fprintf(w, "accuracy error: %.4f (paper metric, lower is better)\n\n", errVal)

	// Function table: estimated vs exact.
	fp := bp.ToFunctions()
	refRank := analysis.RefFunctionRanking(reference)
	refByFunc := make([]float64, p.NumFuncs())
	for b, ic := range reference.InstrCount {
		refByFunc[p.Blocks[b].Func] += float64(ic)
	}
	t := report.New(fmt.Sprintf("top %d functions (estimated vs exact instruction share)", top),
		"function", "est %", "exact %", "exact rank")
	rank := fp.Ranking()
	if top > len(rank) {
		top = len(rank)
	}
	refPos := make(map[int]int, len(refRank))
	for i, id := range refRank {
		refPos[id] = i + 1
	}
	total := float64(reference.NetInstructions)
	var estTotal float64
	for _, v := range fp.InstrEstimate {
		estTotal += v
	}
	if estTotal == 0 {
		estTotal = 1
	}
	for _, id := range rank[:top] {
		t.AddRow(p.Funcs[id].Name,
			fmt.Sprintf("%5.2f", 100*fp.InstrEstimate[id]/estTotal),
			fmt.Sprintf("%5.2f", 100*refByFunc[id]/total),
			fmt.Sprintf("%d", refPos[id]))
	}
	fmt.Fprintln(w, t.String())

	agree := analysis.CompareRankings(rank, refRank, 10)
	fmt.Fprintf(w, "top-10 ranking: exact=%v overlap=%.0f%% kendall-tau=%.2f\n",
		agree.ExactOrder, 100*agree.SetOverlap, agree.KendallTau)

	if traceDepth > 0 {
		// Re-run under a tracer to show the retirement stream texture
		// (burst markers make the §5.1 clustering visible).
		tr := trace.New(traceDepth, nil)
		if _, err := cpu.Run(p, mach.CPU, tr, 0); err != nil {
			return err
		}
		fmt.Fprintf(w, "last %d retirements (│ marks same-cycle retirement bursts):\n%s\n",
			traceDepth, tr.Format(p))
	}

	if blocks && len(rank) > 0 {
		hot := p.Funcs[refRank[0]]
		bt := report.New(fmt.Sprintf("\nblocks of hottest function %s", hot.Name),
			"block", "addr", "len", "est instrs", "exact instrs")
		for _, blk := range hot.Blocks {
			bt.AddRow(blk.Label,
				fmt.Sprintf("%#x", program.DisplayAddr(blk.Start)),
				fmt.Sprintf("%d", blk.Len()),
				fmt.Sprintf("%.0f", bp.InstrEstimate[blk.ID]),
				fmt.Sprintf("%d", reference.InstrCount[blk.ID]))
		}
		fmt.Fprintln(w, bt.String())
	}
	return nil
}
