package experiments

// The counter-multiplexing experiment family: how far can perf-style
// scaled counts (count * enabled/running) be trusted? The simulator runs
// the OS-style virtualized PMU (pmu.Mux) on top of each machine's
// physical counter budget and compares every scaled estimate against the
// exact ground-truth count it uniquely has — a new error-source axis next
// to the paper's sampling-method comparison: the x-axes are the number of
// requested events, the rotation timeslice, and (via the PhaseShift
// workload) how badly workload phases break the stationarity assumption
// behind the scaling.

import (
	"fmt"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/report"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// MuxEventMenu is the canonical request-list order: experiments that ask
// for "n events" request the first n. Instructions-retired comes first
// (the most commonly requested event; on Intel the classic sampler
// already holds the fixed counter, so even it needs a general counter
// here), then the rate-diverse rest.
func MuxEventMenu() []pmu.Event {
	return []pmu.Event{
		pmu.EvInstRetired, pmu.EvBrTaken, pmu.EvLoad, pmu.EvStore, pmu.EvCondBr,
		pmu.EvUopsRetired, pmu.EvFPOp, pmu.EvBrMispred, pmu.EvCall, pmu.EvRet,
	}
}

// MuxKey returns the synthetic method key a multiplexing cell is stored
// under, e.g. "mux-rr-n06-ts02000". The zero padding makes the keys
// lexically self-sorting, so report.Matrix orders columns by (policy,
// events, timeslice) without a bespoke comparator.
func MuxKey(policy pmu.MuxPolicy, nEvents int, timeslice uint64) string {
	return fmt.Sprintf("mux-%s-n%02d-ts%05d", policy, nEvents, timeslice)
}

// MuxMeasurement is one multiplexing cell: the counting-error summary of
// one (workload, machine, event list, timeslice, policy) run.
type MuxMeasurement struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// Key is the synthetic method key (MuxKey) the cell is stored under.
	Key string `json:"key"`
	// MeanErr and MaxErr summarize the per-event relative counting error
	// |scaled - exact| / exact over the requested events (starved events
	// count as error 1). Both are -1 for a cell a sweep timeout abandoned.
	MeanErr float64 `json:"mean_err"`
	// MaxErr is -1 when the cell was served from a results store, which
	// persists only the MeanErr summary (the repo's "-1 = not available"
	// convention, like Measurement.Err for dead cells).
	MaxErr float64 `json:"max_err"`
	// Rotations is the number of counter rotations serviced.
	Rotations uint64 `json:"rotations"`
	// Starved is the number of requested events that never held a
	// counter; -1 when served from a store (see MaxErr).
	Starved int `json:"starved"`
	// Counts holds the full per-event outcome (exact, raw, scaled,
	// enabled/running). Nil when the cell was served from a results store,
	// which persists only the summary.
	Counts []pmu.MuxCount `json:"counts,omitempty"`
}

// muxWorkloads returns the workload rows of the mux tables: two paper
// kernels with steady event mixes and two phased stress workloads that
// break the scaling assumption — the hand-built PhaseShift and the
// spec-generated PhasedBurst, whose burst schedule concentrates the FP
// phase into every 8th macro iteration at 6x intensity (the worst case
// for enabled/running extrapolation: the owned windows mostly miss the
// bursts).
func muxWorkloads() []workloads.Spec {
	var specs []workloads.Spec
	for _, name := range []string{"LatencyBiased", "G4Box", "PhaseShift", "PhasedBurst"} {
		s, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// muxCellKey resolves the timeslice default and derives the cell's
// synthetic method key — the single definition shared by measurement and
// store lookup, so the two can never key a cell differently.
func muxCellKey(events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) (uint64, string) {
	if timeslice == 0 {
		timeslice = pmu.DefaultMuxTimeslice
	}
	return timeslice, MuxKey(policy, len(events), timeslice)
}

// MeasureMux runs one multiplexed collection — classic sampling plus the
// requested counting events — and summarizes the multiplexing-induced
// counting error. A zero timeslice selects pmu.DefaultMuxTimeslice.
func (r *Runner) MeasureMux(spec workloads.Spec, mach machine.Machine, events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) (MuxMeasurement, error) {
	timeslice, key := muxCellKey(events, timeslice, policy)
	meas := MuxMeasurement{Workload: spec.Name, Machine: mach.Name, Key: key}

	classic, err := sampling.MethodByKey("classic")
	if err != nil {
		return meas, err
	}
	opt := r.collectOptions(stats.DeriveSeed(r.Seed, spec.Name, mach.Name, key, "0"))
	opt.Events, opt.MuxTimesliceCycles, opt.MuxPolicy = events, timeslice, policy
	run, err := sampling.Collect(r.Workload(spec), mach, classic, opt)
	if err != nil {
		return meas, err
	}
	meas.Rotations = run.MuxRotations
	meas.Counts = run.Counts
	var sum, max float64
	for _, c := range run.Counts {
		e := c.RelError()
		sum += e
		if e > max {
			max = e
		}
		if c.RunningCycles == 0 {
			meas.Starved++
		}
	}
	meas.MeanErr = sum / float64(len(run.Counts))
	meas.MaxErr = max
	return meas, nil
}

// muxCell is one mux grid cell on the cell path. Its identity carries
// the request list's length (MuxKey), not the events themselves, so only
// the fixed menu-prefix grids may store it: RunMuxCustom's cells go
// through the path with no store.
type muxCell struct {
	spec      workloads.Spec
	mach      machine.Machine
	events    []pmu.Event
	timeslice uint64
	policy    pmu.MuxPolicy
}

func (c muxCell) coords() (string, string, string) {
	_, key := muxCellKey(c.events, c.timeslice, c.policy)
	return c.spec.Name, c.mach.Name, key
}

func (muxCell) joins(muxCell) bool { return false }

func (c muxCell) measure(r *Runner, _ []muxCell) ([]MuxMeasurement, []error) {
	return alone(r.MeasureMux(c.spec, c.mach, c.events, c.timeslice, c.policy))
}

// record keeps only the summary: the mean error, and the rotation count
// in the Samples field.
func (muxCell) record(m MuxMeasurement) results.Record {
	return results.Record{Err: m.MeanErr, Samples: int(m.Rotations), Supported: true}
}

func (muxCell) served(rec results.Record) MuxMeasurement {
	return MuxMeasurement{
		Workload: rec.Workload, Machine: rec.Machine, Key: rec.Method,
		MeanErr: rec.Err, Rotations: uint64(rec.Samples),
		// The store persists only the summary; mark the unrecoverable
		// fields not-available rather than letting them read as
		// genuinely zero.
		MaxErr: -1, Starved: -1,
	}
}

// muxCells returns the (workload × machine × config) cells of a mux
// table in row order: workload, then machine, then config.
func muxCells(configs []muxConfig) []muxCell {
	var cells []muxCell
	for _, spec := range muxWorkloads() {
		for _, mach := range machine.All() {
			for _, cfg := range configs {
				cells = append(cells, muxCell{spec, mach, cfg.Events, cfg.Timeslice, cfg.Policy})
			}
		}
	}
	return cells
}

// muxConfig is one column of a mux table.
type muxConfig struct {
	Label     string
	Events    []pmu.Event
	Timeslice uint64
	Policy    pmu.MuxPolicy
}

// muxMatrix measures a (workload × machine × config) grid on the worker
// pool and renders one row per workload × machine, one column per config
// — the shape every mux table shares. The cell text is the mean relative
// counting error.
func (r *Runner) muxMatrix(title string, configs []muxConfig) (*report.Table, []MuxMeasurement, error) {
	out, _, err := runCells[MuxMeasurement](r, r.Store, r.opts(), muxCells(configs))
	if err != nil {
		return nil, out, err
	}

	headers := []string{"workload", "machine"}
	for _, c := range configs {
		headers = append(headers, c.Label)
	}
	t := report.New(title, headers...)
	for i := 0; i < len(out); i += len(configs) {
		row := []string{out[i].Workload, out[i].Machine}
		for _, m := range out[i : i+len(configs)] {
			row = append(row, report.Fmt(m.MeanErr))
		}
		t.AddRow(row...)
	}
	return t, out, nil
}

// RunMuxEvents measures multiplexing error against the number of
// requested events at the default timeslice under round-robin rotation.
// Within the counter budget the error is exactly zero; each event past it
// stretches every event's extrapolation further.
func (r *Runner) RunMuxEvents() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	var configs []muxConfig
	for _, n := range []int{2, 4, 6, 8, 10} {
		configs = append(configs, muxConfig{
			Label:  fmt.Sprintf("n=%d", n),
			Events: menu[:n],
		})
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs requested events (mean |scaled-exact|/exact; lower is better)",
		configs)
	if err == nil {
		t.Note = fmt.Sprintf(
			"Round-robin rotation, timeslice %d cycles; classic sampling pinned alongside. "+
				"All machines have 4 general counters; on Intel the sampler rides the fixed counter, on AMD it costs a general one.",
			uint64(pmu.DefaultMuxTimeslice))
	}
	return t, ms, err
}

// RunMuxTimeslice measures multiplexing error against the rotation
// timeslice at a fixed 8-event request list. Shorter timeslices sample
// each event's rate more often and track phases better — at the price of
// rotation overhead a real kernel would pay; the PhaseShift rows show the
// aliasing blow-up when windows and phases are commensurate.
func (r *Runner) RunMuxTimeslice() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	var configs []muxConfig
	for _, ts := range []uint64{250, 1000, 4000, 16000} {
		configs = append(configs, muxConfig{
			Label:     fmt.Sprintf("ts=%d", ts),
			Events:    menu[:8],
			Timeslice: ts,
		})
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs rotation timeslice, 8 requested events (lower is better)",
		configs)
	if err == nil {
		t.Note = "Round-robin rotation. PhaseShift alternates memory-only and FP/branch-only phases " +
			"about one timeslice long: scaled counts assume stationary rates, so its errors dwarf the steady kernels'."
	}
	return t, ms, err
}

// RunMuxPolicy contrasts the rotation policies at an 8-event request
// list: round-robin spreads estimation error over every event, priority
// gives the first events exact counts and the rest nothing.
func (r *Runner) RunMuxPolicy() (*report.Table, []MuxMeasurement, error) {
	menu := MuxEventMenu()
	configs := []muxConfig{
		{Label: "round-robin", Events: menu[:8]},
		{Label: "priority", Events: menu[:8], Policy: pmu.MuxPriority},
	}
	t, ms, err := r.muxMatrix(
		"Multiplexing error vs rotation policy, 8 requested events (lower is better)",
		configs)
	if err == nil {
		t.Note = "Priority scheduling is perf's pinned-event mode: scheduled events are exact, " +
			"overflow events are never counted (error 1 each, like perf's \"<not counted>\")."
	}
	return t, ms, err
}

// RunMuxCustom measures one explicit event list across the mux workloads
// and machines and renders the full per-event accounting — the table
// behind `pmubench -events`.
func (r *Runner) RunMuxCustom(events []pmu.Event, timeslice uint64, policy pmu.MuxPolicy) (*report.Table, []MuxMeasurement, error) {
	if len(events) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty event list")
	}
	// No store: the identity does not name the events, so a custom list
	// would alias the menu prefix of the same length.
	out, _, err := runCells[MuxMeasurement](r, nil, r.opts(),
		muxCells([]muxConfig{{Events: events, Timeslice: timeslice, Policy: policy}}))
	if err != nil {
		return nil, out, err
	}

	t := report.New(
		fmt.Sprintf("Multiplexed counting: %s (policy %s)", pmu.EventListString(events), policy),
		"workload", "machine", "event", "exact", "scaled", "rel err", "running/enabled", "rotations")
	for _, meas := range out {
		for _, c := range meas.Counts {
			exact, scaled, relErr, running := c.TableCells()
			t.AddRow(meas.Workload, meas.Machine, c.Event.String(),
				exact, scaled, relErr, running, fmt.Sprintf("%d", meas.Rotations))
		}
	}
	t.Note = "scaled = raw * enabled/running, the estimate perf reports under multiplexing; " +
		"exact is the simulator's ground truth."
	return t, out, nil
}
