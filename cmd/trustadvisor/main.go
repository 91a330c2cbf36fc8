// Command trustadvisor runs the full method registry over a workload on a
// machine and prints measured errors plus the method recommendation — the
// paper's §6.3 advice, grounded in measurements for the specific
// combination at hand.
//
// Usage:
//
//	trustadvisor -workload FullCMS [-machine Westmere] [-scale 1.0]
//	             [-period 4000] [-seed 42] [-repeats 3] [-all-machines]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pmutrust/internal/core"
	"pmutrust/internal/machine"
	"pmutrust/internal/workloads"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name (see wlgen -list)")
		machineName  = flag.String("machine", "IvyBridge", "machine model")
		scale        = flag.Float64("scale", 1.0, "workload scale factor")
		period       = flag.Uint64("period", 4000, "base sampling period (instructions)")
		seed         = flag.Uint64("seed", 42, "random seed")
		repeats      = flag.Int("repeats", 3, "measurement repeats per method")
		allMachines  = flag.Bool("all-machines", false, "assess on every machine")
	)
	flag.Parse()
	if *workloadName == "" {
		fmt.Fprintln(os.Stderr, "trustadvisor: -workload is required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *workloadName, *machineName, *scale, *period, *seed, *repeats, *allMachines); err != nil {
		fmt.Fprintf(os.Stderr, "trustadvisor: %v\n", err)
		os.Exit(1)
	}
}

// run assesses the workload on the named machine (or on every machine)
// and writes one assessment table per machine to w.
func run(w io.Writer, workloadName, machineName string, scale float64, period, seed uint64, repeats int, allMachines bool) error {
	if !(scale > 0) { // NaN too
		return fmt.Errorf("scale must be positive, got %v", scale)
	}
	spec, err := workloads.ByName(workloadName)
	if err != nil {
		return err
	}
	p := spec.Build(scale)

	machines := machine.All()
	if !allMachines {
		m, err := machine.ByName(machineName)
		if err != nil {
			return err
		}
		machines = []machine.Machine{m}
	}

	for _, m := range machines {
		a, err := core.Assess(p, m, core.Options{
			PeriodBase: period,
			Seed:       seed,
			Repeats:    repeats,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, a.Table())
	}
	return nil
}
