// Command wlgen inspects and authors the evaluation workloads: static
// CFG statistics, dynamic execution characteristics (the
// enterprise-workload signatures of §2.3), disassembly, DOT export —
// and the v2 authoring surface: spec-driven generation with versioned
// trace record/replay (docs/WORKLOADS.md is the guide).
//
// Usage:
//
//	wlgen -list
//	wlgen -workload G4Box [-scale 1.0] [-disasm] [-dot] [-dynamic]
//	wlgen -workload G4Box -events inst_retired,load [-timeslice N] [-mux-policy rr|priority]
//	wlgen -all [-scale 1.0] [-parallel N]
//	wlgen -spec spec.json [-scale 1.0] [-record out.trace]
//	wlgen -replay in.trace [-record out.trace]
//
// -spec builds a phased workload from a JSON spec document instead of
// the registry. -record writes the built program (whatever its source)
// as one versioned trace entry; -replay reconstructs the bit-identical
// program from a trace and inspects it like any other — re-recording a
// replay preserves the original provenance verbatim, so
// record→replay→record is byte-identical (the CI docs job proves this
// on the worked example).
//
// -events runs the workload under the virtualized multi-event PMU
// (internal/pmu Mux) on each evaluation machine, counting-only: the
// requested events are scheduled onto the machine's physical counters
// (time-multiplexed when they do not fit) and the table shows each
// event's exact ground-truth count next to the perf-style scaled
// estimate — the per-workload view of what counter multiplexing costs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pmutrust/internal/cpu"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/pool"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/report"
	"pmutrust/internal/trace"
	"pmutrust/internal/workloads"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list available workloads")
		workloadName = flag.String("workload", "", "workload to inspect")
		scale        = flag.Float64("scale", 1.0, "workload scale factor")
		disasm       = flag.Bool("disasm", false, "print full disassembly")
		dot          = flag.Bool("dot", false, "print the CFG in Graphviz DOT format")
		dynamic      = flag.Bool("dynamic", true, "run the workload and print dynamic statistics")
		all          = flag.Bool("all", false, "characterize every workload (parallel) and print a summary table")
		parallel     = flag.Int("parallel", 0, "worker count for -all (0 = GOMAXPROCS)")
		eventsFlag   = flag.String("events", "", "run the workload under the multiplexed PMU counting these events (comma-separated, e.g. inst_retired,load)")
		timeslice    = flag.Uint64("timeslice", 0, "multiplexer rotation timeslice in simulated cycles (0 = default)")
		muxPolicy    = flag.String("mux-policy", "rr", "multiplexer rotation policy: rr or priority")
		specFile     = flag.String("spec", "", "build a phased workload from this JSON spec file (docs/WORKLOADS.md)")
		recordPath   = flag.String("record", "", "record the built program to this trace file")
		replayPath   = flag.String("replay", "", "replay the program from this trace file instead of building one")
	)
	flag.Parse()

	// Flag-value errors are usage errors (exit 2, matching pmubench's
	// convention for the same -events/-mux-policy flags); failures while
	// actually running a workload exit 1.
	muxEvents, err := pmu.ParseEventList(*eventsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
		os.Exit(2)
	}
	policy, err := pmu.MuxPolicyByName(*muxPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
		os.Exit(2)
	}
	if *replayPath != "" && *specFile != "" {
		fmt.Fprintln(os.Stderr, "wlgen: -replay and -spec are exclusive (a replay is already built)")
		os.Exit(2)
	}

	if *all {
		if err := summarizeAll(*scale, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	haveSource := *workloadName != "" || *specFile != "" || *replayPath != ""
	if *list || !haveSource {
		t := report.New("available workloads", "name", "kind", "description")
		for _, s := range workloads.All() {
			t.AddRow(s.Name, s.Kind.String(), s.Description)
		}
		fmt.Println(t.String())
		if !haveSource {
			return
		}
	}

	entry, err := resolveProgram(*replayPath, *specFile, *workloadName, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
		os.Exit(1)
	}
	p := entry.Program
	if *replayPath != "" {
		fmt.Printf("replayed %s from %s (source %s, recorded at scale %g)\n",
			entry.Meta.Name, *replayPath, entry.Meta.Source, entry.Meta.Scale)
	}

	if *recordPath != "" {
		if err := trace.WriteFile(*recordPath, entry); err != nil {
			fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %s to %s\n", entry.Meta.Name, *recordPath)
	}

	fmt.Print(p.Stats().String())

	if len(muxEvents) > 0 {
		if err := muxCount(p, muxEvents, *timeslice, policy); err != nil {
			fmt.Fprintf(os.Stderr, "wlgen: %v\n", err)
			os.Exit(1)
		}
	}

	if *dynamic {
		res, err := cpu.RunFast(p, cpu.DefaultConfig(), cpu.NopMonitor{}, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlgen: run: %v\n", err)
			os.Exit(1)
		}
		rp, err := ref.Collect(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlgen: ref: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dynamic: %d instrs, %d cycles (IPC %.2f)\n",
			res.Instructions, res.Cycles, res.IPC())
		fmt.Printf("  taken branches: %d (1 per %.1f instrs — enterprise band is 6-12)\n",
			res.TakenBranches, float64(res.Instructions)/float64(max(1, res.TakenBranches)))
		fmt.Printf("  cond branches: %d, mispredicted: %d (%.1f%%)\n",
			res.CondBranches, res.Mispredicts,
			100*float64(res.Mispredicts)/float64(max(1, res.CondBranches)))
		// Hotness long tail: how many blocks cover 90% of instructions?
		covered, blocks90 := uint64(0), 0
		counts := append([]uint64(nil), rp.InstrCount...)
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		for _, c := range counts {
			if covered*10 >= rp.NetInstructions*9 {
				break
			}
			covered += c
			blocks90++
		}
		fmt.Printf("  hotness: %d of %d blocks cover 90%% of instructions\n",
			blocks90, p.NumBlocks())
	}
	if *disasm {
		fmt.Println(p.Disasm())
	}
	if *dot {
		fmt.Println(p.Dot())
	}
}

// resolveProgram builds the program to inspect from the strongest
// source given: a trace replay (already-built bytes, Meta preserved
// verbatim so re-recording is byte-identical), else a spec file, else a
// registered workload.
func resolveProgram(replayPath, specFile, workloadName string, scale float64) (trace.Entry, error) {
	switch {
	case replayPath != "":
		return trace.ReplayFile(replayPath)
	case specFile != "":
		s, err := workloads.LoadPhasedSpec(specFile)
		if err != nil {
			return trace.Entry{}, err
		}
		p, err := workloads.BuildPhased(s, scale)
		if err != nil {
			return trace.Entry{}, err
		}
		return trace.Record(p, trace.Meta{
			SpecFP: s.Fingerprint(),
			Source: "spec:" + s.Name,
			Scale:  scale,
		}), nil
	default:
		spec, err := workloads.ByName(workloadName)
		if err != nil {
			return trace.Entry{}, err
		}
		return trace.Record(spec.Build(scale), trace.Meta{
			Source: "workload:" + spec.Name,
			Scale:  scale,
		}), nil
	}
}

// wlRow is one workload's dynamic characterization for the -all table.
type wlRow struct {
	instrs, cycles uint64
	ipc            float64
	instrPerTaken  float64
	blocks         int
}

// summarizeAll builds and runs every registered workload on the shared
// bounded worker pool (workloads are independent, so this parallelizes
// cleanly) and prints one summary row each, in registry order regardless
// of completion order.
func summarizeAll(scale float64, workers int) error {
	specs := workloads.All()
	rows := make([]wlRow, len(specs))
	err := pool.ForEach(len(specs), workers, 0, func(i int) error {
		p := specs[i].Build(scale)
		res, err := cpu.RunFast(p, cpu.DefaultConfig(), cpu.NopMonitor{}, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		rows[i] = wlRow{
			instrs:        res.Instructions,
			cycles:        res.Cycles,
			ipc:           res.IPC(),
			instrPerTaken: float64(res.Instructions) / float64(max(1, res.TakenBranches)),
			blocks:        p.NumBlocks(),
		}
		return nil
	})
	if err != nil {
		return err
	}

	t := report.New(fmt.Sprintf("workload characterization (scale %g)", scale),
		"name", "kind", "instrs", "cycles", "IPC", "instr/taken", "blocks")
	for i, s := range specs {
		r := rows[i]
		t.AddRow(s.Name, s.Kind.String(),
			fmt.Sprintf("%d", r.instrs), fmt.Sprintf("%d", r.cycles),
			fmt.Sprintf("%.2f", r.ipc), fmt.Sprintf("%.1f", r.instrPerTaken),
			fmt.Sprintf("%d", r.blocks))
	}
	fmt.Println(t.String())
	return nil
}

// muxCount runs p under the virtualized multi-event PMU on each paper
// machine, counting-only (no sampling counter pinned, so the full
// physical budget is available), and prints the exact-vs-scaled table.
func muxCount(p *program.Program, events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) error {
	t := report.New(fmt.Sprintf("multiplexed counts: %s (policy %s)", pmu.EventListString(events), policy),
		"machine", "event", "exact", "scaled", "rel err", "running/enabled", "rotations")
	for _, mach := range machine.All() {
		m := pmu.NewMux(pmu.MuxConfig{
			Events:           events,
			TimesliceCycles:  timeslice,
			Policy:           policy,
			GenCounters:      mach.NumGenCounters,
			FixedCounterFree: mach.HasFixedCounter,
		}, nil)
		res, err := cpu.RunFast(p, mach.CPU, m, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", mach.Name, err)
		}
		for _, c := range m.Finish(res.Cycles) {
			exact, scaled, relErr, running := c.TableCells()
			t.AddRow(mach.Name, c.Event.String(),
				exact, scaled, relErr, running, fmt.Sprintf("%d", m.Rotations))
		}
	}
	fmt.Println(t.String())
	return nil
}
