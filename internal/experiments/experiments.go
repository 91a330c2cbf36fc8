// Package experiments is the reproduction harness: it wires workloads,
// machines, sampling methods, profiles and the accuracy metric into the
// paper's experiments, and renders result tables with the same structure
// as the originals.
//
// Every table and figure of the paper maps to one Run* function here, and
// the experiment table (Registry, registry.go) lists each under its
// pmubench name; cmd/pmubench and bench_test.go are thin callers.
package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pmutrust/internal/analysis"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
	"pmutrust/internal/workloads"
)

// Scale bundles the knobs that shrink the paper's hardware-scale
// experiments onto the simulator (see DESIGN.md §2 "Scaling"). The ratio
// of workload size to sampling period — and hence samples per run — is
// kept in the same regime as the paper's.
type Scale struct {
	// Name identifies the scale in logs.
	Name string
	// Workload multiplies each workload's base iteration count.
	Workload float64
	// PeriodBase is the sampling period in instructions before
	// prime/randomization adjustments (the paper uses 2,000,000).
	PeriodBase uint64
	// Repeats is how many times each measurement runs with different
	// seeds; errors are averaged (the paper measures each kernel five
	// times, §4.1).
	Repeats int
}

// PaperScale is the default CLI/bench scale: ~10-50M instructions per
// workload, a few thousand samples per run.
func PaperScale() Scale {
	return Scale{Name: "paper", Workload: 8, PeriodBase: 4000, Repeats: 3}
}

// SmallScale keeps unit and integration tests fast.
func SmallScale() Scale {
	return Scale{Name: "small", Workload: 1, PeriodBase: 2000, Repeats: 1}
}

// ScaleByName resolves a scale name ("paper", "small") to its parameter
// set. Distributed sweep plans persist only the name, so every process
// of a fleet resolves identical parameters through this single table —
// the CLIs use it too.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale(), nil
	case "small":
		return SmallScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// Measurement is one (workload, machine, method) accuracy result.
type Measurement struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Method   string `json:"method"`
	// Err is the paper's accuracy error, averaged over successful
	// repeats; -1 when the machine does not support the method
	// (Supported false) or when no repeat succeeded (Failed true).
	Err float64 `json:"err"`
	// PerRepeat holds the individual repeat errors, in repeat order.
	PerRepeat []float64 `json:"per_repeat,omitempty"`
	// Samples is the sample count of the first successful repeat (repeat
	// seeds are derived from the cell identity, so this is deterministic
	// regardless of execution order or worker count).
	Samples int `json:"samples"`
	// Supported reports whether the machine can run the method.
	Supported bool `json:"supported"`
	// Failed reports that at least one repeat errored, or that the cell
	// never produced a result (e.g. abandoned by a sweep timeout); when
	// no repeat succeeded, Err is -1 so a dead cell can never read as
	// perfect accuracy.
	Failed bool `json:"failed,omitempty"`
}

// Runner caches built workloads and reference profiles across experiments
// (reference collection dominates otherwise). A Runner is safe for
// concurrent use: the caches are mutex-guarded with single-flight build
// semantics, so two workers asking for the same workload never build it
// twice, and every derived seed depends only on the cell identity — the
// same grid produces bit-identical results at any worker count.
type Runner struct {
	Scale Scale
	// Seed is the base seed. Repeat rep of a (workload, machine, method)
	// cell draws its seed from stats.DeriveSeed(Seed, workload, machine,
	// method, rep), giving every cell an independent, collision-free
	// stream that does not depend on sweep order.
	Seed uint64
	// Parallel is the default worker count for Sweep and the parallel
	// table runners; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Timeout stops each sweep from dispatching new cells past the given
	// wall-clock deadline; cells already running finish (jobs are not
	// interruptible). 0 means none.
	Timeout time.Duration
	// Engine selects the execution engine for every measurement (default
	// sampling.EngineFast). The engines are bit-identical, so results —
	// and store fingerprints — do not depend on this; EngineBoth
	// self-checks each cell at twice the cost.
	Engine sampling.EngineMode
	// Store, when non-nil, makes every grid incremental (the accuracy
	// matrices, the mux grids and the tenant grids): the cell path serves
	// cells already present in the store and appends newly measured ones
	// (see cached.go). Cells whose configuration the identity does not
	// fully name (a custom mux event list, a non-default switch cost)
	// bypass it and are never stored. Any results.Store works — a
	// single-file store for resume, a merged shard-directory view for
	// distributed sweeps.
	Store results.Store
	// RefStore, when non-nil, memoizes ground-truth reference profiles
	// across processes: Reference serves a workload's profile from the
	// store when a valid record exists and appends freshly collected ones
	// (see refcache.go). It is a sidecar of Store — reference records use
	// the reserved results.RefMethod key and never mix with measurements.
	RefStore results.Store
	// Telemetry, when non-nil, receives engine counters from every
	// measurement (every collection starts from collectOptions, which
	// carries the sink), the ref served-vs-collected split, and from the
	// cell path the cells' stored/measured counts and one wall-time
	// observation per measured supported cell. A Measure call outside
	// any grid is not a cell and is not counted or observed. Nil disables
	// instrumentation at no cost.
	Telemetry *telemetry.Sink

	mu    sync.Mutex
	progs map[string]*progEntry
	refs  map[string]*refEntry
	// storeStats accumulates the cell path's served/measured split (see
	// countCells and StoreStats).
	storeStats SweepStats
	// refStats accumulates the served/collected split of reference
	// lookups (see RefStats).
	refStats SweepStats
}

// progEntry is a single-flight slot for one built workload: the first
// worker to claim it runs Build inside the Once, later workers block on
// the Once and reuse the result.
type progEntry struct {
	once sync.Once
	p    *program.Program
}

// refEntry is the single-flight slot for one reference profile.
type refEntry struct {
	once sync.Once
	rp   *ref.Profile
	err  error
}

// NewRunner creates a runner at the given scale.
func NewRunner(s Scale, seed uint64) *Runner {
	return &Runner{
		Scale: s,
		Seed:  seed,
		progs: make(map[string]*progEntry),
		refs:  make(map[string]*refEntry),
	}
}

// Workload returns the built program for a workload spec, cached.
// Concurrent calls for the same spec build it exactly once.
func (r *Runner) Workload(spec workloads.Spec) *program.Program {
	r.mu.Lock()
	e, ok := r.progs[spec.Name]
	if !ok {
		e = &progEntry{}
		r.progs[spec.Name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.p = spec.Build(r.Scale.Workload) })
	return e.p
}

// Reference returns the exact profile for a workload, cached. Concurrent
// calls for the same spec collect it exactly once; a collection error is
// cached too, so a broken workload fails fast on every later call. With
// a RefStore attached, the profile is served from the store when a valid
// memo exists and memoized into it otherwise (see refcache.go), so
// across processes each (workload, scale) reference is executed once
// per store lifetime instead of once per process.
func (r *Runner) Reference(spec workloads.Spec) (*ref.Profile, error) {
	r.mu.Lock()
	e, ok := r.refs[spec.Name]
	if !ok {
		e = &refEntry{}
		r.refs[spec.Name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		if rp, ok := r.refFromStore(spec); ok {
			e.rp = rp
			r.mu.Lock()
			r.refStats.Cached++
			r.mu.Unlock()
			r.Telemetry.CountRef(true)
			return
		}
		rp, err := ref.Collect(r.Workload(spec))
		if err != nil {
			e.err = fmt.Errorf("experiments: reference for %s: %w", spec.Name, err)
			return
		}
		e.rp = rp
		r.putRef(spec, rp)
		r.mu.Lock()
		r.refStats.Measured++
		r.mu.Unlock()
		r.Telemetry.CountRef(false)
	})
	return e.rp, e.err
}

// RepeatSeed derives the seed for one repeat of one grid cell. It is a
// pure function of (base seed, cell identity, repeat), which is what
// makes sweep results independent of scheduling, and what lets a tool
// that measures one repeat of a named cell (MeasureOnce) print the
// grid's number for it.
func (r *Runner) RepeatSeed(spec workloads.Spec, mach machine.Machine, m sampling.Method, rep int) uint64 {
	return stats.DeriveSeed(r.Seed, spec.Name, mach.Name, m.Key, strconv.Itoa(rep))
}

// MeasureOnce runs one (workload, machine, method) measurement with one
// seed and returns the accuracy error and the run.
func (r *Runner) MeasureOnce(spec workloads.Spec, mach machine.Machine, m sampling.Method, seed uint64) (float64, *sampling.Run, error) {
	e, run, _, err := r.score(spec, func(p *program.Program) (*sampling.Run, error) {
		return sampling.Collect(p, mach, m, r.collectOptions(seed))
	})
	if err != nil {
		return 0, nil, err
	}
	return e, run, nil
}

// collectOptions returns the sampling options of one collection at this
// runner's scale and engine, reporting to its telemetry sink. Every
// collection an experiment makes starts from these options, so none can
// drop the engine mode or the sink.
func (r *Runner) collectOptions(seed uint64) sampling.Options {
	return sampling.Options{
		PeriodBase: r.Scale.PeriodBase,
		Seed:       seed,
		Engine:     r.Engine,
		Telemetry:  r.Telemetry,
	}
}

// score is the one collect → estimate → score body: collect samples the
// built workload, and scoreRun scores the run. It returns the accuracy
// error with the run and the LBR decode stats (zero for sampled
// methods).
func (r *Runner) score(spec workloads.Spec, collect func(*program.Program) (*sampling.Run, error)) (float64, *sampling.Run, lbr.DecodeStats, error) {
	p := r.Workload(spec)
	reference, err := r.Reference(spec)
	if err != nil {
		return 0, nil, lbr.DecodeStats{}, err
	}
	run, err := collect(p)
	if err != nil {
		return 0, nil, lbr.DecodeStats{}, err
	}
	e, ds, err := scoreRun(p, run, reference)
	if err != nil {
		return 0, nil, ds, err
	}
	return e, run, ds, nil
}

// scoreRun estimates run's block profile the way its method would
// (lbr.Profile) and scores the estimate against the exact reference.
func scoreRun(p *program.Program, run *sampling.Run, reference *ref.Profile) (float64, lbr.DecodeStats, error) {
	bp, ds, err := lbr.Profile(p, run)
	if err != nil {
		return 0, ds, err
	}
	e, err := analysis.AccuracyError(bp, reference)
	return e, ds, err
}

// instrsPerSharedSample is the packing rule of shared executions: an
// execution takes members while it samples on average at most once per
// this many retired instructions. The registry scales periods so that
// every method samples about once per PeriodBase instructions, so at
// most PeriodBase/instrsPerSharedSample members share an execution: 8 at
// period 2000, 16 at paper scale's 4000 and 1 at period 250. A cap is
// needed because an execution holds every member's samples at once:
// with none, perfbench's sample-dense workload (period 250) shares up to
// 7 members per execution, and in 3 alternating 10 s runs (2 vCPUs) it
// read peak RSS 18.2–20.6 MB against 13.4–13.8 MB and wall_s 1.16–1.39 s
// against 0.62–0.89 s.
const instrsPerSharedSample = 250

// sharedMembers is how many members one execution takes at this
// runner's period (see instrsPerSharedSample).
func (r *Runner) sharedMembers() int {
	return max(1, int(r.Scale.PeriodBase/instrsPerSharedSample))
}

// Measure runs the configured number of repeats and averages: the
// one-method case of measureShared. Each repeat uses a seed derived from
// the cell identity (see RepeatSeed); Samples records the count of the
// first successful repeat, so the field is well-defined under
// concurrency. When some repeats fail, the successful ones are still
// aggregated into the returned Measurement and the per-repeat failures
// come back joined into one error.
func (r *Runner) Measure(spec workloads.Spec, mach machine.Machine, m sampling.Method) (Measurement, error) {
	ms, errs := r.measureShared(spec, mach, []sampling.Method{m})
	return ms[0], errs[0]
}

// measureShared measures methods on one (workload, machine), its
// members sharing executions: up to sharedMembers of them are lowered
// under their repeat's collectOptions and collected through one
// sampling.CollectCells.
func (r *Runner) measureShared(spec workloads.Spec, mach machine.Machine, methods []sampling.Method) ([]Measurement, []error) {
	ms, _, errs := r.measure(spec, mach, methods, r.sharedMembers(), func(p *program.Program, batch []member) ([]*sampling.Run, error) {
		cells := make([]sampling.Cell, len(batch))
		for j, mb := range batch {
			c, err := sampling.PrepareCell(mach, methods[mb.method], r.collectOptions(mb.seed))
			if err != nil {
				return nil, err
			}
			cells[j] = c
		}
		return sampling.CollectCells(p, mach, cells, r.collectOptions(0))
	})
	return ms, errs
}

// member is one repeat of one method of a measure call: the unit an
// execution carries. Repeat seeds are pure (RepeatSeed), so every member
// is known before anything executes.
type member struct {
	method, rep int
	seed        uint64
}

// collector collects one execution's members on the built workload p,
// returning each member's run; an error fails every member.
type collector func(p *program.Program, batch []member) ([]*sampling.Run, error)

// repeat is one scored repeat of a method.
type repeat struct {
	e       float64
	samples int
	sched   *sampling.SchedStats
	err     error
}

// measure is the one measurement body behind Measure, MeasureTenants
// and the grouped cell path. Every repeat of every method mach supports
// is a member; collect runs up to shared members per execution, and each
// execution's members are scored and their runs dropped before the next
// execution starts. Each method then aggregates its repeats in repeat
// order: PerRepeat holds the successful repeats' errors, Samples (and
// the returned SchedStats, nil for one tenant) come from the first
// successful repeat, Failed marks a failed repeat, and Err is the mean
// of the successful ones — -1 when none succeeded, or when the method is
// unsupported and nothing ran. A method's per-repeat failures come back
// joined into its error.
func (r *Runner) measure(spec workloads.Spec, mach machine.Machine, methods []sampling.Method,
	shared int, collect collector) ([]Measurement, []*sampling.SchedStats, []error) {

	out := make([]Measurement, len(methods))
	reps := make([][]repeat, len(methods))
	var members []member
	for k, m := range methods {
		out[k] = Measurement{Workload: spec.Name, Machine: mach.Name, Method: m.Key, Err: -1}
		if _, ok := sampling.Resolve(m, mach); !ok {
			continue
		}
		out[k].Supported = true
		reps[k] = make([]repeat, r.Scale.Repeats)
		for rep := range reps[k] {
			members = append(members, member{k, rep, r.RepeatSeed(spec, mach, m, rep)})
		}
	}
	if len(members) > 0 {
		p := r.Workload(spec)
		reference, refErr := r.Reference(spec)
		for len(members) > 0 {
			batch := members[:min(shared, len(members))]
			members = members[len(batch):]
			var runs []*sampling.Run
			err := refErr
			if err == nil {
				runs, err = collect(p, batch)
			}
			for j, mb := range batch {
				rp := &reps[mb.method][mb.rep]
				if err != nil {
					rp.err = err
					continue
				}
				rp.e, _, rp.err = scoreRun(p, runs[j], reference)
				rp.samples, rp.sched = len(runs[j].Samples), runs[j].Sched
			}
		}
	}

	scheds := make([]*sampling.SchedStats, len(methods))
	errs := make([]error, len(methods))
	for k := range methods {
		var failures []error
		for rep, rp := range reps[k] {
			if rp.err != nil {
				failures = append(failures, fmt.Errorf("repeat %d: %w", rep, rp.err))
				continue
			}
			if len(out[k].PerRepeat) == 0 {
				out[k].Samples, scheds[k] = rp.samples, rp.sched
			}
			out[k].PerRepeat = append(out[k].PerRepeat, rp.e)
		}
		out[k].Failed = len(failures) > 0
		if len(out[k].PerRepeat) > 0 {
			out[k].Err = stats.Mean(out[k].PerRepeat)
		}
		errs[k] = errors.Join(failures...)
	}
	return out, scheds, errs
}
