// Package pmutrust is a harness for studying — and establishing trust in —
// the accuracy of hardware-performance-counter profiling, reproducing
// Nowak, Yasin, Mendelson and Zwaenepoel, "Establishing a Base of Trust
// with Performance Counters for Enterprise Workloads" (USENIX ATC 2015).
//
// The package front-door wires together the building blocks a user needs
// for the paper's workflow:
//
//  1. pick a workload (the paper's kernels and enterprise-application
//     analogs, or any program built with the Builder DSL),
//  2. pick a machine model (Magny-Cours, Westmere, Ivy Bridge),
//  3. pick a sampling method from the Table 3 registry (classic, precise
//     variants, PDIR with LBR IP-fix, full LBR),
//  4. collect samples on the simulated PMU, build a basic-block profile,
//     and score it against exact instrumentation with the paper's
//     accuracy-error metric.
//
// Minimal example (see examples/quickstart for the runnable version):
//
//	spec, _ := pmutrust.WorkloadByName("G4Box")
//	prog := spec.Build(1.0)
//	reference, _ := pmutrust.Reference(prog)
//	method, _ := pmutrust.MethodByKey("lbr")
//	prof, run, _ := pmutrust.Profile(prog, pmutrust.IvyBridge(), method,
//		pmutrust.Options{PeriodBase: 4000, Seed: 1})
//	errVal, _ := pmutrust.AccuracyError(prof, reference)
//	fmt.Printf("%s: %d samples, error %.4f\n", run.Method.Key, len(run.Samples), errVal)
//
// # Experiment sweeps
//
// The reproduction harness in internal/experiments evaluates full
// (workload × machine × method) grids through a parallel sweep layer:
// experiments.Grid enumerates the cells, Runner.Sweep dispatches them to
// a bounded worker pool (GOMAXPROCS workers by default, -parallel on
// cmd/pmubench to override, -timeout to bound wall-clock time), and the
// Runner's workload/reference caches are single-flight so concurrent
// workers never build the same workload twice.
//
// Sweeps are deterministic by construction: repeat rep of a cell draws
// its seed from stats.DeriveSeed(baseSeed, workload, machine, method,
// rep) — a pure function of the cell identity — so the aggregated
// results are bit-identical at any worker count and in any completion
// order. cmd/pmubench exposes the sweep results as rendered tables and,
// with -json, as machine-readable per-cell measurement records.
//
// # Results store, resumable sweeps and reports
//
// Because each cell's measurement is a pure function of its
// configuration tuple, measurements can be persisted and reused.
// internal/results keys each cell by a content address over (workload,
// machine, method, scale, period, base seed, repeats) and appends
// completed cells to a JSONL store file; Runner.SweepCached serves cells
// already present and measures only the rest. `pmubench -store
// results.jsonl` records a sweep as it runs, and re-running with
// `-resume` after an interruption re-executes only the missing cells —
// the final tables are byte-identical to an uninterrupted run.
//
// cmd/pmureport is the read side: it regenerates the paper-shaped
// accuracy tables (kernel/application matrices, per-machine method
// ranking, improvement factors) from a store file without re-measuring,
// as plain text, Markdown or CSV, and `pmureport -compare old.jsonl
// new.jsonl` diffs two stores cell-by-cell, exiting non-zero when a
// cell's accuracy error regressed beyond a tolerance.
//
// # Distributed sweeps
//
// The store sits behind the results.Store interface. One store type
// reads either a single append-only JSONL file or a sharded directory
// of single-writer files, merged and deduplicated on read. The directory
// form backs the distributed sweep service (internal/sweepd): `pmubench -serve`
// partitions a matrix experiment's cell grid into shards leased through
// expiring lease files under a shared sweep directory, N `pmubench
// -worker` processes (local or on any host sharing the filesystem)
// claim shards and append completed cells to per-shard files, and the
// coordinator streams progress/ETA and renders the final tables from
// the merged records. Workers killed mid-shard — even mid-record-write —
// cost at most one lease TTL and never a re-measurement of their
// completed cells; because every cell is content-addressed, the
// distributed result is byte-identical to a single-process run (a
// subprocess fault-injection harness in internal/sweepd proves it).
// pmureport accepts the sweep directory anywhere it takes a store file.
//
// # Execution engines
//
// Two engines execute the simulated machines. The reference interpreter
// (internal/cpu.Run) retires one instruction at a time through
// Monitor.OnRetire. The default fast-path executor (cpu.RunFast)
// predecodes the program and advances in block-structured strides,
// asking the PMU how many instructions can retire before any possible
// observable event (counter overflow, armed PEBS window, pending PMI,
// displaced IBS tag) and bulk-advancing counters across that span; LBR
// rings still see every taken branch. The two are bit-identical in every
// observable — Result, sample streams, LBR contents, error text — which
// a differential harness enforces across the full grid and thousands of
// fuzzed Builder-DSL programs (internal/cpu, internal/sampling,
// internal/pmu tests; `pmubench -engine both` self-checks entire
// sweeps). Options.Engine / `pmubench -engine fast|interp|both` select
// the engine; the fast path is ~2.7x faster (geomean over the Table 4
// kernels, BENCH_engine.json; CI gates regressions at ±15% via
// cmd/benchgate) and results never depend on the choice.
//
// # Counter multiplexing (virtualized multi-event PMU)
//
// Real deployments time-share counters: perf accepts more requested
// events than the machine's physical counters (four general counters on
// all three platforms, plus Intel's fixed instructions-retired counter),
// rotates them on a timer tick, and scales each raw count by
// enabled/running time. Options.Events requests counting events
// alongside any sampling method; when the list overcommits the budget
// the virtualized PMU layer (internal/pmu Mux) rotates the counters on
// Options.MuxTimesliceCycles under Options.MuxPolicy (round-robin like
// perf's flexible events, or priority like pinned events — overflow
// events are then never counted). Run.Counts reports, per event, the
// exact ground-truth count only a simulator has next to the perf-style
// scaled estimate, so the multiplexing-induced counting error is
// directly measurable: `pmubench -experiment
// mux-events|mux-timeslice|mux-policy` sweeps it against the number of
// events, the timeslice and the rotation policy across all machines
// (rendered from a store by `pmureport -table mux`), and `wlgen -events`
// prints the per-event accounting for one workload.
//
// # Spec-driven workloads and trace record/replay
//
// Beyond the frozen paper evaluation set, internal/workloads is a
// spec-driven generator: a PhasedSpec is a small JSON document naming
// phases (each an instruction-class mix, written out or fitted from a
// registered kernel/application with FitMix) and a schedule (fixed,
// alternate, burst, ramp) that sequences them across a macro loop.
// Generation is a pure function of (spec, scale) — byte-identical at
// any parallelism, with per-phase RNG streams derived via
// stats.DeriveSeed so editing one phase never perturbs another. Three
// spec-generated workloads (PhasedAlt, PhasedBurst, PhasedRamp) are
// registered alongside the hand-built PhaseShift as the phased family
// (PhasedWorkloads here), which extends the accuracy matrix to
// non-stationary event mixes (`pmubench -experiment phased`, rendered
// as Table 9 by `pmureport -table phased`); Kernels and Apps never
// include them, so the paper tables are untouched.
//
// internal/trace makes generated programs durable artifacts: a
// versioned, canonical JSONL trace format records the full program
// structure plus provenance (generating-spec fingerprint, source,
// scale) and a program fingerprint that is re-verified on decode.
// Replay reconstructs a bit-identical program.Program — record →
// replay → re-record is byte-identical, and a sampling run on the
// replayed program matches the original under both engines. Readers
// reject other format versions explicitly (re-record from the spec;
// there are no migrations). `wlgen -spec/-record/-replay` is the
// command-line surface; docs/WORKLOADS.md is the authoring guide.
//
// # Multi-tenant scheduling
//
// Real profiles are taken on shared machines, where the kernel
// timeslices tenants onto cores and context-switches the PMU state with
// them. internal/sched simulates that: CollectTenants runs N programs
// on one simulated core under a CFS-style timeslice scheduler with
// per-task PMU context save/restore, injecting the three noise
// mechanisms a real multi-tenant profile suffers — in-flight samples
// drained at preemption, kernel context-switch path events leaking into
// whichever tenant's counters are live, and PMI skid landing samples in
// the successor tenant's stream (cross-tenant attribution noise).
// SchedOptions.Migrate optionally migrates tenants across machine
// models at every switch. Each returned Run carries SchedStats
// (switches, drains, foreign samples, kernel leakage, migrations), and
// scheduling is a deterministic pure function of its inputs: tenant
// runs are bit-identical across both execution engines and at any
// parallelism. `pmubench -experiment tenants|tenants-timeslice` sweeps
// accuracy degradation against tenant count and timeslice (rendered
// from a store by `pmureport -table tenants`), with the single-tenant
// column bit-identical to the unscheduled accuracy tables.
//
// The heavy lifting lives in the internal packages (isa, program, cpu,
// pmu, machine, sampling, sched, ref, profile, lbr, analysis,
// workloads, trace, experiments, results, report, telemetry); this
// package re-exports the stable surface.
package pmutrust

import (
	"pmutrust/internal/analysis"
	"pmutrust/internal/core"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/trace"
	"pmutrust/internal/workloads"
)

// Re-exported core types. The aliases are the supported public names;
// their methods and fields are documented at the definition sites.
type (
	// Program is a built, validated workload program.
	Program = program.Program
	// Builder constructs Programs from functions, blocks and instructions.
	Builder = program.Builder
	// Machine models one of the paper's evaluation platforms.
	Machine = machine.Machine
	// Method is one sampling method of the paper's Table 3 registry.
	Method = sampling.Method
	// Options controls a collection run.
	Options = sampling.Options
	// Run is the outcome of one sampling collection.
	Run = sampling.Run
	// BlockProfile is an estimated basic-block profile.
	BlockProfile = profile.BlockProfile
	// FunctionProfile aggregates a BlockProfile by function.
	FunctionProfile = profile.FunctionProfile
	// Reference is the exact instrumentation-based profile ("REF").
	ReferenceProfile = ref.Profile
	// WorkloadSpec describes a buildable evaluation workload.
	WorkloadSpec = workloads.Spec
	// RankAgreement compares estimated and exact function rankings.
	RankAgreement = analysis.RankAgreement
	// Assessment is a full per-method trust evaluation with a
	// recommendation (the paper's §6.3, operationalized).
	Assessment = core.Assessment
	// AssessOptions controls an Assess run.
	AssessOptions = core.Options
	// EdgeProfile holds control-flow edge traversal counts (PGO input).
	EdgeProfile = profile.EdgeProfile
	// LoopStat is a loop discovered from backedges, with its trip count.
	LoopStat = profile.LoopStat
	// CountEvent selects a countable PMU event (Options.Events).
	CountEvent = pmu.Event
	// MuxPolicy selects the counter-multiplexing rotation policy.
	MuxPolicy = pmu.MuxPolicy
	// MuxCount is one multiplexed event's exact-vs-scaled outcome
	// (Run.Counts).
	MuxCount = pmu.MuxCount
	// PhasedSpec is a declarative phased-workload specification (the
	// wlgen v2 authoring surface; see docs/WORKLOADS.md).
	PhasedSpec = workloads.PhasedSpec
	// TraceEntry is one recorded program plus its provenance metadata.
	TraceEntry = trace.Entry
	// TraceMeta is the provenance carried by a trace entry.
	TraceMeta = trace.Meta
	// SchedOptions controls a multi-tenant scheduled collection
	// (CollectTenants): the embedded Options plus optional cross-model
	// migration.
	SchedOptions = sched.Options
	// SchedStats reports per-tenant scheduling noise accounting
	// (Run.Sched on runs collected by CollectTenants).
	SchedStats = sampling.SchedStats
	// TelemetrySink accumulates run-time counters (engine fast-path
	// strides and fallbacks, sweep cache traffic) when attached via
	// Options.Telemetry. A nil sink is always safe and costs nothing —
	// collection results are bit-identical with and without one.
	TelemetrySink = telemetry.Sink
	// TelemetrySnapshot is a point-in-time, canonically-marshalable view
	// of a sink's counters (TelemetrySink.Snapshot).
	TelemetrySnapshot = telemetry.Snapshot
)

// Re-exported countable events and multiplexer policies, so
// Options.Events and Options.MuxPolicy are usable without reaching into
// internal packages.
const (
	EvInstRetired = pmu.EvInstRetired
	EvUopsRetired = pmu.EvUopsRetired
	EvBrTaken     = pmu.EvBrTaken
	EvCondBr      = pmu.EvCondBr
	EvBrMispred   = pmu.EvBrMispred
	EvLoad        = pmu.EvLoad
	EvStore       = pmu.EvStore
	EvFPOp        = pmu.EvFPOp
	EvCall        = pmu.EvCall
	EvRet         = pmu.EvRet

	MuxRoundRobin = pmu.MuxRoundRobin
	MuxPriority   = pmu.MuxPriority
)

// ParseEventList parses a comma-separated countable-event list (the
// spelling of the -events flags), e.g. "inst_retired,load,br_taken".
func ParseEventList(s string) ([]CountEvent, error) { return pmu.ParseEventList(s) }

// NewBuilder starts a new program. See internal/program for the DSL.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// Workloads returns all evaluation workloads (kernels then applications).
func Workloads() []WorkloadSpec { return workloads.All() }

// Kernels returns the paper's §4.3 kernels.
func Kernels() []WorkloadSpec { return workloads.Kernels() }

// Apps returns the paper's application analogs.
func Apps() []WorkloadSpec { return workloads.Apps() }

// PhasedWorkloads returns the phased/bursty family (PhaseShift plus the
// spec-generated alternate/burst/ramp schedules). Never part of
// Kernels or Apps — the paper evaluation set stays frozen.
func PhasedWorkloads() []WorkloadSpec { return workloads.PhasedFamily() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (WorkloadSpec, error) { return workloads.ByName(name) }

// ParsePhasedSpec parses, normalizes and validates a phased-workload
// spec document (strict JSON: unknown fields are errors).
func ParsePhasedSpec(data []byte) (PhasedSpec, error) { return workloads.ParsePhasedSpec(data) }

// BuildPhased generates the program for a spec at the given scale —
// a pure function of (spec, scale), byte-identical at any parallelism.
func BuildPhased(s PhasedSpec, scale float64) (*Program, error) {
	return workloads.BuildPhased(s, scale)
}

// RecordTrace wraps a built program and its provenance as a trace
// entry ready for WriteTraceFile.
func RecordTrace(prog *Program, meta TraceMeta) TraceEntry { return trace.Record(prog, meta) }

// WriteTraceFile writes entries as a versioned JSONL trace file.
func WriteTraceFile(path string, entries ...TraceEntry) error {
	return trace.WriteFile(path, entries...)
}

// ReadTraceFile reads every complete entry of a trace file, verifying
// format version and program fingerprints (a torn final line — the
// residue of a killed writer — is tolerated, like the results store).
func ReadTraceFile(path string) ([]TraceEntry, error) { return trace.ReadFile(path) }

// ReplayTrace reconstructs the last recorded program of a trace file,
// bit-identical to the program that was recorded (`wlgen -replay`).
func ReplayTrace(path string) (TraceEntry, error) { return trace.ReplayFile(path) }

// MagnyCours returns the AMD Opteron 6164 HE machine model.
func MagnyCours() Machine { return machine.MagnyCours() }

// Westmere returns the Intel Xeon X5650 machine model.
func Westmere() Machine { return machine.Westmere() }

// IvyBridge returns the Intel Xeon E3-1265L machine model.
func IvyBridge() Machine { return machine.IvyBridge() }

// Machines returns the three paper machines.
func Machines() []Machine { return machine.All() }

// MachineByName looks up a machine model by name.
func MachineByName(name string) (Machine, error) { return machine.ByName(name) }

// Methods returns the paper's Table 3 method registry.
func Methods() []Method { return sampling.Registry() }

// MethodByKey looks up one method ("classic", "precise", "precise+rand",
// "precise+prime", "precise+prime+rand", "pdir+ipfix", "lbr").
func MethodByKey(key string) (Method, error) { return sampling.MethodByKey(key) }

// Reference runs prog under exact instrumentation (the paper's Pin "REF"
// role) and returns per-block ground truth.
func Reference(prog *Program) (*ReferenceProfile, error) { return ref.Collect(prog) }

// Collect samples prog on mach with method m and returns the raw run.
// Most callers want Profile instead.
func Collect(prog *Program, mach Machine, m Method, opt Options) (*Run, error) {
	return sampling.Collect(prog, mach, m, opt)
}

// CollectTenants timeshares progs on one simulated core of mach under a
// CFS-style scheduler with per-task PMU context save/restore, sampling
// every tenant with method m. Runs come back in tenant order, each with
// its own sample stream and Run.Sched noise accounting. Tenants given the
// same *Program share one simulated execution, which costs one engine run
// instead of one per tenant and changes no result. The tenant count is
// len(progs); set opt.SchedTimesliceCycles/SchedSwitchCostCycles to
// override the scheduling period and per-machine switch cost.
func CollectTenants(progs []*Program, mach Machine, m Method, opt SchedOptions) ([]*Run, error) {
	return sched.Collect(progs, mach, m, opt)
}

// Profile samples prog on mach with method m and builds the basic-block
// profile the way a tool using that method would (plain EBS attribution
// with optional IP+1 fix, or full LBR-stack decoding).
func Profile(prog *Program, mach Machine, m Method, opt Options) (*BlockProfile, *Run, error) {
	run, err := sampling.Collect(prog, mach, m, opt)
	if err != nil {
		return nil, nil, err
	}
	bp, _, err := lbr.Profile(prog, run)
	if err != nil {
		return nil, nil, err
	}
	return bp, run, nil
}

// AccuracyError scores an estimated profile against the exact reference
// with the paper's §3.3 metric (0 is perfect, lower is better).
func AccuracyError(est *BlockProfile, reference *ReferenceProfile) (float64, error) {
	return analysis.AccuracyError(est, reference)
}

// ImprovementFactor reports how many times smaller err is than base.
func ImprovementFactor(base, err float64) float64 {
	return analysis.ImprovementFactor(base, err)
}

// CompareRankings reports agreement between estimated and exact top-N
// function rankings (the paper's §5.2 FullCMS ordering check).
func CompareRankings(estRank, refRank []int, n int) RankAgreement {
	return analysis.CompareRankings(estRank, refRank, n)
}

// RefFunctionRanking converts a reference profile into a function ranking
// comparable with FunctionProfile.Ranking.
func RefFunctionRanking(r *ReferenceProfile) []int {
	return analysis.RefFunctionRanking(r)
}

// Assess evaluates every sampling method for prog on mach and returns the
// measured errors plus a machine-specific method recommendation. The
// errors are the accuracy grid's cells for prog's row at the options'
// period, seed and repeats: a registered workload built at a table's
// scale reads the table's numbers.
func Assess(prog *Program, mach Machine, opt AssessOptions) (*Assessment, error) {
	return core.Assess(prog, mach, opt)
}

// ReferenceEdges returns the exact block-level control-flow edge profile
// of prog (ground truth for PGO-style edge counts and loop trip counts).
func ReferenceEdges(prog *Program) (*EdgeProfile, error) {
	return ref.CollectEdges(prog)
}

// EdgeProfileFromLBR reconstructs an edge profile from an LBR-method run
// (§2.1: basic-block graphs and loop trip counts from branch records).
func EdgeProfileFromLBR(prog *Program, run *Run) (*EdgeProfile, error) {
	return lbr.BuildEdgeProfile(prog, run)
}
