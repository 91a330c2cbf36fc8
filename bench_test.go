// Benchmark harness: one benchmark per paper table/figure (entries of the
// experiment table, experiments.Registry) plus micro-benchmarks for the
// substrates. Accuracy errors are attached to benchmark output as custom
// metrics ("err") so `go test -bench` output doubles as a results table.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// simulator, not the authors' testbed); the shapes — who wins, by what
// rough factor — are asserted by the test suite (DESIGN.md §4 and §5).
package pmutrust_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/experiments"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/profile"
	"pmutrust/internal/ref"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// benchScale keeps one full (workload, machine, method) measurement in the
// tens-of-milliseconds range so the whole harness completes in minutes.
func benchScale() experiments.Scale {
	return experiments.Scale{Name: "bench", Workload: 0.25, PeriodBase: 1000, Repeats: 1}
}

// benchCell measures one Table cell and reports the error as a metric.
func benchCell(b *testing.B, workload, machineName, methodKey string) {
	b.Helper()
	r := experiments.NewRunner(benchScale(), 42)
	spec, err := workloads.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := machine.ByName(machineName)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sampling.MethodByKey(methodKey)
	if err != nil {
		b.Fatal(err)
	}
	var lastErr float64
	for i := 0; i < b.N; i++ {
		meas, err := r.Measure(spec, mach, m)
		if err != nil {
			b.Fatal(err)
		}
		lastErr = meas.Err
	}
	b.ReportMetric(lastErr, "err")
}

// --- Table 1: kernels × methods × machines -------------------------------

func BenchmarkTable1(b *testing.B) {
	for _, spec := range workloads.Kernels() {
		for _, mach := range machine.All() {
			for _, key := range []string{"classic", "precise+prime+rand", "pdir+ipfix", "lbr"} {
				m, _ := sampling.MethodByKey(key)
				if _, ok := sampling.Resolve(m, mach); !ok {
					continue
				}
				b.Run(spec.Name+"/"+mach.Name+"/"+key, func(b *testing.B) {
					benchCell(b, spec.Name, mach.Name, key)
				})
			}
		}
	}
}

// --- Table 2: applications × methods × machines ---------------------------

func BenchmarkTable2(b *testing.B) {
	for _, spec := range workloads.Apps() {
		for _, mach := range machine.All() {
			for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
				m, _ := sampling.MethodByKey(key)
				if _, ok := sampling.Resolve(m, mach); !ok {
					continue
				}
				b.Run(spec.Name+"/"+mach.Name+"/"+key, func(b *testing.B) {
					benchCell(b, spec.Name, mach.Name, key)
				})
			}
		}
	}
}

// --- §5.2 side experiments -------------------------------------------------

func BenchmarkSideIPFix(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	var factor float64
	for i := 0; i < b.N; i++ {
		_, res, err := r.RunIPFix()
		if err != nil {
			b.Fatal(err)
		}
		factor = res.Factor
	}
	b.ReportMetric(factor, "improvement_x")
}

func BenchmarkSideRanking(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.RunRanking(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md A1-A5) -------------------------------------------

func BenchmarkAblationSkid(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.AblateSkid(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPeriod(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.AblatePeriod(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLBRDepth(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.AblateLBRDepth(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBurst(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.AblateBurst(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRandAmp(b *testing.B) {
	r := experiments.NewRunner(benchScale(), 42)
	for i := 0; i < b.N; i++ {
		if _, _, err := r.AblateRandAmp(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep layer ------------------------------------------------------------

// BenchmarkSweepKernels runs the full kernels × machines × methods grid
// through the parallel sweep layer at 1 worker and at GOMAXPROCS: the
// ratio of the two is the harness's multicore speedup. A fresh runner
// per iteration keeps workload builds and reference collection inside
// the measured work, as in a cold full-table run.
func BenchmarkSweepKernels(b *testing.B) {
	g := experiments.Grid{
		Workloads: workloads.Kernels(),
		Machines:  machine.All(),
		Methods:   sampling.Registry(),
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(benchScale(), 42)
				ms, err := r.Sweep(g, experiments.SweepOptions{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(ms)), "cells")
			}
		})
	}
}

// --- Engines: interp vs fast ------------------------------------------------

// BenchmarkEngines times full sampling collections (workload + PMU) on the
// Table 4 kernel set under both execution engines and writes
// BENCH_engine_fresh.json with the per-workload speedup factor and its
// geomean — the perf-trajectory artifact for the fast-path executor, which
// cmd/benchgate compares against the committed BENCH_engine.json (copy the
// fresh file over it to refresh the baseline). The engines are
// bit-identical (see internal/cpu's differential harness), so the factor
// is pure wall-clock.
func BenchmarkEngines(b *testing.B) {
	type timing struct{ interpNs, fastNs float64 }
	mach := machine.IvyBridge()
	m, err := sampling.MethodByKey("precise+prime+rand")
	if err != nil {
		b.Fatal(err)
	}
	const periodBase = 4000 // the PaperScale period regime

	// The interp and fast cases run telemetry-disabled (nil sink) and feed
	// the BENCH_engine_fresh.json artifact, so the gated speedup is the
	// instrumented-but-disabled configuration — the one every production
	// run without -telemetry uses. The fast+sink case times the same
	// collection with a live sink attached; it is reported for inspection
	// but kept out of the artifact (attached-mode cost is not the gated
	// property).
	modes := []struct {
		name string
		eng  sampling.EngineMode
		sink bool
	}{
		{sampling.EngineInterp.String(), sampling.EngineInterp, false},
		{sampling.EngineFast.String(), sampling.EngineFast, false},
		{sampling.EngineFast.String() + "+sink", sampling.EngineFast, true},
	}
	specs := workloads.Kernels()
	timings := make(map[string]*timing, len(specs))
	var order []string
	for _, spec := range specs {
		spec := spec
		p := spec.Build(0.25)
		timings[spec.Name] = &timing{}
		order = append(order, spec.Name)
		for _, mode := range modes {
			mode := mode
			b.Run(spec.Name+"/"+mode.name, func(b *testing.B) {
				var sink *telemetry.Sink
				if mode.sink {
					sink = &telemetry.Sink{}
				}
				var instrs uint64
				for i := 0; i < b.N; i++ {
					run, err := sampling.Collect(p, mach, m, sampling.Options{
						PeriodBase: periodBase,
						Seed:       42,
						Engine:     mode.eng,
						Telemetry:  sink,
					})
					if err != nil {
						b.Fatal(err)
					}
					instrs = run.CPU.Instructions
				}
				perOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(float64(instrs)/perOp/1e6, "Minstr/s")
				if mode.sink {
					return
				}
				tm := timings[spec.Name]
				if mode.eng == sampling.EngineInterp {
					tm.interpNs = perOp * 1e9
				} else {
					tm.fastNs = perOp * 1e9
				}
			})
		}
	}

	// Emit the artifact. Under -benchtime=1x (CI smoke) the numbers are
	// single-shot and noisy; run with a real -benchtime for the recorded
	// trajectory.
	type entry struct {
		Workload string  `json:"workload"`
		InterpNs float64 `json:"interp_ns"`
		FastNs   float64 `json:"fast_ns"`
		Speedup  float64 `json:"speedup"`
	}
	doc := struct {
		Machine    string  `json:"machine"`
		Method     string  `json:"method"`
		PeriodBase uint64  `json:"period_base"`
		Workloads  []entry `json:"workloads"`
		Geomean    float64 `json:"geomean_speedup"`
	}{Machine: mach.Name, Method: m.Key, PeriodBase: periodBase}
	logGeo, n := 0.0, 0
	for _, name := range order {
		tm := timings[name]
		if tm.interpNs <= 0 || tm.fastNs <= 0 {
			continue // partial -bench filter run
		}
		sp := tm.interpNs / tm.fastNs
		doc.Workloads = append(doc.Workloads, entry{
			Workload: name, InterpNs: tm.interpNs, FastNs: tm.fastNs, Speedup: sp,
		})
		logGeo += math.Log(sp)
		n++
	}
	if n == 0 {
		return
	}
	doc.Geomean = math.Exp(logGeo / float64(n))
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine_fresh.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("engine speedup geomean %.2fx across %d kernels (BENCH_engine_fresh.json)", doc.Geomean, n)
}

// BenchmarkCollectAllocs pins the steady-state allocation cost of one
// full sampling collection, without and with LBR capture (the LBR case
// is the allocation-heavy one: every sample snapshots the branch ring;
// the arena in internal/pmu amortizes those snapshots into shared
// chunks). Run with -benchmem. The benchmark also writes
// BENCH_alloc_fresh.json — allocations per collection, measured directly
// via runtime.MemStats so the artifact works at any -benchtime — which
// cmd/benchgate compares against the committed BENCH_alloc.json: a per-sample
// allocation creeping back into the hot path multiplies allocs/op by
// the sample count and fails the gate.
func BenchmarkCollectAllocs(b *testing.B) {
	mach := machine.IvyBridge()
	p := workloads.MustBuild("G4Box", 0.1)
	type caseResult struct {
		Method      string  `json:"method"`
		Samples     int     `json:"samples"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	}
	// The testing package re-invokes the parent function once per
	// sub-benchmark run, so results are keyed (last run wins), not
	// appended. The "+sink" cases attach a live telemetry sink: the sink
	// counts on plain atomics with no allocation, so its allocs/op
	// baseline equals the nil-sink case's — benchgate turns any
	// divergence (a counter implementation that starts allocating, or a
	// nil-sink path that stops being free) into a gate failure.
	cases := []struct {
		name string
		key  string
		sink bool
	}{
		{"precise+prime+rand", "precise+prime+rand", false},
		{"precise+prime+rand+sink", "precise+prime+rand", true},
		{"lbr", "lbr", false},
		{"lbr+sink", "lbr", true},
	}
	results := make(map[string]caseResult, len(cases))
	for _, c := range cases {
		c := c
		m, err := sampling.MethodByKey(c.key)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink *telemetry.Sink
			if c.sink {
				sink = &telemetry.Sink{}
			}
			var samples int
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				run, err := sampling.Collect(p, mach, m, sampling.Options{
					PeriodBase: 1000,
					Seed:       42,
					Telemetry:  sink,
				})
				if err != nil {
					b.Fatal(err)
				}
				samples = len(run.Samples)
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(samples), "samples")
			results[c.name] = caseResult{
				Method:      c.name,
				Samples:     samples,
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.N),
			}
		})
	}
	if len(results) < len(cases) {
		return // partial -bench filter run
	}
	var recorded []caseResult
	for _, c := range cases {
		recorded = append(recorded, results[c.name])
	}
	doc := struct {
		Machine    string       `json:"machine"`
		Workload   string       `json:"workload"`
		PeriodBase uint64       `json:"period_base"`
		Cases      []caseResult `json:"cases"`
	}{Machine: mach.Name, Workload: "G4Box", PeriodBase: 1000, Cases: recorded}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_alloc_fresh.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkCPUTimedRun measures simulator throughput (instructions/op via
// b.SetBytes-like metric: ns/instr reported as custom metric).
func BenchmarkCPUTimedRun(b *testing.B) {
	p := workloads.MustBuild("G4Box", 0.1)
	res, err := cpu.Run(p, cpu.DefaultConfig(), cpu.NopMonitor{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	instrs := res.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(p, cpu.DefaultConfig(), cpu.NopMonitor{}, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkCPUFunctionalRun(b *testing.B) {
	p := workloads.MustBuild("G4Box", 0.1)
	res, err := cpu.RunFunctional(p, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.RunFunctional(p, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Instructions)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkPMUMonitorOverhead compares a monitored run against NopMonitor:
// the collection-overhead concern of Table 3 and [38].
func BenchmarkPMUMonitorOverhead(b *testing.B) {
	p := workloads.MustBuild("G4Box", 0.1)
	mach := machine.IvyBridge()
	cfg := pmu.Config{
		Event: pmu.EvInstRetired, Precision: pmu.PreciseDist,
		Period: 1000, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := pmu.New(cfg)
		if _, err := cpu.Run(p, mach.CPU, unit, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLBRDecode(b *testing.B) {
	p := workloads.MustBuild("G4Box", 0.2)
	m, _ := sampling.MethodByKey("lbr")
	run, err := sampling.Collect(p, machine.IvyBridge(), m, sampling.Options{PeriodBase: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lbr.BuildProfile(p, run); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(run.Samples)), "stacks")
}

func BenchmarkReferenceCollect(b *testing.B) {
	p := workloads.MustBuild("Test40", 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Collect(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileFromSamples(b *testing.B) {
	p := workloads.MustBuild("xalancbmk", 0.1)
	m, _ := sampling.MethodByKey("pdir+ipfix")
	run, err := sampling.Collect(p, machine.IvyBridge(), m, sampling.Options{PeriodBase: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.FromSamples(p, run)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, err := workloads.ByName("xalancbmk")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p := spec.Build(0.1)
		if p.NumBlocks() == 0 {
			b.Fatal("empty program")
		}
	}
}
