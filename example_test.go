package pmutrust_test

import (
	"fmt"

	"pmutrust"
)

// ExampleProfile shows the core workflow: build a workload, collect a
// profile with one sampling method, and score it against exact
// instrumentation.
func ExampleProfile() {
	spec, _ := pmutrust.WorkloadByName("LatencyBiased")
	prog := spec.Build(0.25)

	reference, _ := pmutrust.Reference(prog)
	method, _ := pmutrust.MethodByKey("pdir+ipfix")
	prof, run, _ := pmutrust.Profile(prog, pmutrust.IvyBridge(), method,
		pmutrust.Options{PeriodBase: 1000, Seed: 1})

	errVal, _ := pmutrust.AccuracyError(prof, reference)
	fmt.Printf("method=%s samples>0=%v error<0.1=%v\n",
		run.Method.Key, len(run.Samples) > 0, errVal < 0.1)
	// Output: method=pdir+ipfix samples>0=true error<0.1=true
}

// ExampleMethods lists the paper's Table 3 method registry.
func ExampleMethods() {
	for _, m := range pmutrust.Methods() {
		fmt.Println(m.Key)
	}
	// Output:
	// classic
	// precise
	// precise+rand
	// precise+prime
	// precise+prime+rand
	// pdir+ipfix
	// lbr
}

// ExampleMachines shows the three evaluation platforms and their key
// capability differences.
func ExampleMachines() {
	for _, m := range pmutrust.Machines() {
		fmt.Printf("%s lbr=%v pdir=%v\n", m.Name, m.HasLBR, m.HasPDIR)
	}
	// Output:
	// MagnyCours lbr=false pdir=false
	// Westmere lbr=true pdir=false
	// IvyBridge lbr=true pdir=true
}

// ExampleNewBuilder constructs a custom two-block workload with the
// builder DSL and validates it.
func ExampleNewBuilder() {
	b := pmutrust.NewBuilder("demo")
	f := b.Func("main")
	entry := f.Block("entry")
	entry.Movi(1, 100)
	loop := f.Block("loop")
	loop.Addi(1, 1, -1)
	loop.Cmpi(1, 0)
	loop.Jnz("loop")
	f.Block("exit").Halt()

	prog, err := b.Build()
	fmt.Println(err == nil, prog.NumBlocks(), prog.NumFuncs())
	// Output: true 3 1
}

// ExampleEdgeProfileFromLBR recovers a loop trip count purely from
// sampled branch records.
func ExampleEdgeProfileFromLBR() {
	b := pmutrust.NewBuilder("loops")
	f := b.Func("main")
	e := f.Block("entry")
	e.Movi(1, 3000)
	outer := f.Block("outer")
	outer.Movi(2, 10)
	inner := f.Block("inner")
	inner.Addi(3, 3, 1)
	inner.Addi(2, 2, -1)
	inner.Cmpi(2, 0)
	inner.Jnz("inner")
	latch := f.Block("latch")
	latch.Addi(1, 1, -1)
	latch.Cmpi(1, 0)
	latch.Jnz("outer")
	f.Block("exit").Halt()
	prog, _ := b.Build()

	method, _ := pmutrust.MethodByKey("lbr")
	run, _ := pmutrust.Collect(prog, pmutrust.Westmere(), method,
		pmutrust.Options{PeriodBase: 1000, Seed: 2})
	edges, _ := pmutrust.EdgeProfileFromLBR(prog, run)

	for header, loop := range edges.TripCounts() {
		if prog.Blocks[header].Label == "inner" && loop.Entries > 0 {
			fmt.Printf("inner loop ~10 trips: %v\n", loop.TripCount > 7 && loop.TripCount < 13)
		}
	}
	// Output: inner loop ~10 trips: true
}

// ExampleAssess produces the paper's §6.3-style recommendation for a
// workload/machine pair.
func ExampleAssess() {
	spec, _ := pmutrust.WorkloadByName("G4Box")
	prog := spec.Build(0.05)
	a, _ := pmutrust.Assess(prog, pmutrust.MagnyCours(),
		pmutrust.AssessOptions{PeriodBase: 1000, Seed: 1, Repeats: 1})
	fmt.Println(a.Best.Supported, a.Best.Method != "classic")
	// Output: true true
}
