// Command lbrdump collects LBR-method samples from a workload and dumps
// raw stacks, decoded segments and the segment-length distribution — the
// "effective number of instructions a sample corresponds to" of §5.1. The
// samples are repeat 0 of the (workload, machine, lbr) grid cell, so the
// accuracy error it prints is the one the tables print at the same scale,
// period and seed.
//
// Usage:
//
//	lbrdump -workload G4Box [-machine IvyBridge] [-scale 0.2] [-period 4000]
//	        [-stacks 3] [-seed 42] [-callgraph]
package main

import (
	"flag"
	"fmt"
	"os"

	"pmutrust/internal/experiments"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name")
		machineName  = flag.String("machine", "IvyBridge", "machine with an LBR facility")
		scale        = flag.Float64("scale", 0.2, "workload scale factor")
		period       = flag.Uint64("period", 4000, "base sampling period (instructions)")
		nStacks      = flag.Int("stacks", 3, "number of raw stacks to print")
		seed         = flag.Uint64("seed", 42, "random seed")
		callgraph    = flag.Bool("callgraph", false, "print the LBR-derived dynamic call graph")
	)
	flag.Parse()
	if *workloadName == "" {
		fmt.Fprintln(os.Stderr, "lbrdump: -workload is required")
		os.Exit(2)
	}
	if err := run(*workloadName, *machineName, *scale, *period, *nStacks, *seed, *callgraph); err != nil {
		fmt.Fprintf(os.Stderr, "lbrdump: %v\n", err)
		os.Exit(1)
	}
}

func run(workloadName, machineName string, scale float64, period uint64, nStacks int, seed uint64, callgraph bool) error {
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
	method, err := sampling.MethodByKey("lbr")
	if err != nil {
		return err
	}
	r := experiments.NewRunner(experiments.Scale{Workload: scale, PeriodBase: period, Repeats: 1}, seed)
	errVal, run, err := r.MeasureOnce(spec, mach, method, r.RepeatSeed(spec, mach, method, 0))
	if err != nil {
		return err
	}
	p := r.Workload(spec)
	reference, err := r.Reference(spec)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %d samples (period %d taken branches, LBR depth %d)\n\n",
		spec.Name, mach.Name, len(run.Samples), run.Period, mach.LBRDepth)

	// Raw stacks with symbolized endpoints.
	for i := 0; i < nStacks && i < len(run.Samples); i++ {
		s := run.Samples[i]
		fmt.Printf("stack %d (cycle %d):\n", i, s.Cycle)
		for j, rec := range s.LBR {
			fromBlk := p.BlockAt(int(rec.From))
			toBlk := p.BlockAt(int(rec.To))
			fmt.Printf("  [%2d] %#08x %-24s -> %#08x %s\n", j,
				program.DisplayAddr(int(rec.From)), fromBlk.FullName(p),
				program.DisplayAddr(int(rec.To)), toBlk.FullName(p))
		}
		fmt.Println()
	}

	// Decode health and segment length distribution.
	bp, ds, err := lbr.BuildProfile(p, run)
	if err != nil {
		return err
	}
	fmt.Printf("decode: %d stacks, %d segments, %d block observations, %d malformed\n",
		ds.Stacks, ds.Segments, ds.Blocks, ds.Malformed)

	lengths := lbr.SegmentLengths(p, run)
	var sum stats.Summary
	for _, l := range lengths {
		sum.Add(float64(l))
	}
	fmt.Printf("segment length (instructions): %s\n", sum.String())

	var estTotal float64
	for _, v := range bp.InstrEstimate {
		estTotal += v
	}
	fmt.Printf("estimated total instructions: %.0f (exact %d, ratio %.3f)\n",
		estTotal, reference.NetInstructions,
		estTotal/float64(reference.NetInstructions))
	fmt.Printf("accuracy error: %.4f (paper metric, lower is better)\n", errVal)

	if callgraph {
		cg, err := lbr.BuildCallGraph(p, run)
		if err != nil {
			return err
		}
		fmt.Printf("\ndynamic call graph (%.0f estimated calls):\n%s",
			cg.TotalCalls(), cg.Format())
	}
	return nil
}
