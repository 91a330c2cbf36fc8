package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pmutrust/internal/analysis"
	"pmutrust/internal/experiments"
	"pmutrust/internal/lbr"
	"pmutrust/internal/machine"
	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/ref"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/sched"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
)

// minTracedPairs is the fewest untraced/traced pass pairs a traced run
// makes.
const minTracedPairs = 2

// span is one call into a layer, recorded by the traced run. Spans are
// recorded on one goroutine, so a span's children never overlap and its
// self time is its duration minus theirs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Trace is the store key of the cell the call served; empty outside
	// a cell.
	Trace string `json:"trace,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Machine, Variant and Instrs annotate sampling.Collect spans: the
	// machine model, the engine loop that served the run (from the
	// call's own telemetry sink) and the instructions it simulated.
	Machine string `json:"machine,omitempty"`
	Variant string `json:"variant,omitempty"`
	Instrs  uint64 `json:"instrs,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the run's spans in memory; they are written out once the
// run ends. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

// begin opens a span as a child of the innermost open one. An empty
// trace inherits the parent's.
func (t *tracer) begin(name, trace string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if trace == "" {
			trace = t.spans[parent].Trace
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// tracedPass is one pass of the traced composition.
type tracedPass struct {
	root  int    // the pass's span
	store string // path of the pass's closed results store
	cells int    // supported cells measured
	sim   simCounts
	// cellMs holds each supported cell's span duration.
	cellMs []float64
}

// traced reruns the workload with the same seed, alternating untraced
// passes through the Runner with passes composed from the layers'
// public calls under the tracer, and reports the per-layer metrics.
func (b *bench) traced() (result, error) {
	t := &tracer{epoch: time.Now()}
	r, _, err := b.setup(0, t)
	if err != nil {
		return result{}, err
	}
	defer b.refs.Close()
	var refInstrs uint64
	for _, s := range b.w.specs() {
		rp, err := r.Reference(s)
		if err != nil {
			return result{}, err
		}
		refInstrs += rp.NetInstructions
	}

	var plain []passResult
	var passes []tracedPass
	start := time.Now()
	for len(passes) < minTracedPairs || time.Since(start) < b.o.seconds {
		u, err := b.untracedPass(r, len(plain))
		if err != nil {
			return result{}, err
		}
		plain = append(plain, u)
		tp, err := b.tracedPass(r, t, len(passes))
		if err != nil {
			return result{}, err
		}
		passes = append(passes, tp)
	}
	first, _, err := b.verify(plain)
	if err != nil {
		return result{}, err
	}
	for i, tp := range passes {
		sp := t.begin("results.Load", "")
		got, err := results.Load(tp.store)
		t.end(sp)
		if err != nil {
			return result{}, err
		}
		b.sameRecords(first, got, fmt.Sprintf("traced pass %d", i))
		if tp.sim != passes[0].sim {
			b.chk.problem("traced pass %d simulated counts %+v differ from traced pass 0's %+v", i, tp.sim, passes[0].sim)
		}
	}
	if got := passes[0].sim.engine(); got != plain[0].sim {
		b.chk.problem("traced engine counts %+v differ from the Runner path's %+v", got, plain[0].sim)
	}
	if err := b.crossCheck(first); err != nil {
		return result{}, err
	}

	l := b.ledger(t, plain, passes)
	l.Metrics["ref.minstr"] = metric{float64(refInstrs) / 1e6, "Minstr"}
	if err := b.writeTrace(t, l); err != nil {
		return result{}, err
	}
	l.print(b.log)
	return b.chk.result(l.Metrics), nil
}

// tracedPass measures every cell of every table from the layers' public
// calls into a fresh results store, then renders each table from its
// records through the report layer.
func (b *bench) tracedPass(r *experiments.Runner, t *tracer, i int) (tracedPass, error) {
	path := filepath.Join(b.dir, fmt.Sprintf("traced%03d.jsonl", i))
	st, err := results.Create(path)
	if err != nil {
		return tracedPass{}, err
	}
	tp := tracedPass{store: path}
	var rendered bytes.Buffer
	runtime.GC()
	tp.root = t.begin("bench.pass", "")
	for _, tb := range b.w.tables {
		recs := make([]results.Record, 0, len(tb.cells))
		for _, c := range tb.cells {
			rec, err := b.tracedCell(r, t, c, st, &tp)
			if err != nil {
				st.Close()
				return tracedPass{}, fmt.Errorf("traced %s: %w", c, err)
			}
			recs = append(recs, rec)
		}
		sp := t.begin("report.Render", "")
		rendered.WriteString(tb.render(recs).String())
		t.end(sp)
	}
	t.end(tp.root)
	return tp, st.Close()
}

// tracedCell composes one cell the way Runner.Measure (or
// MeasureTenants) does, from Runner.Workload and Runner.Reference, the
// collection, the profile build and the scoring, and appends its record
// with Store.Put. The Workload and Reference calls are in-memory cache
// hits after set-up and are not spanned; their cost counts in the cell's
// self time.
func (b *bench) tracedCell(r *experiments.Runner, t *tracer, c cell, st results.Store, tp *tracedPass) (results.Record, error) {
	id := c.identity(r)
	cs := t.begin("experiments.cell", id.Key())
	m := experiments.Measurement{Workload: c.spec.Name, Machine: c.mach.Name, Method: c.method.Key, Err: -1}
	if c.supported() {
		m.Supported = true
		p := r.Workload(c.spec)
		rp, err := r.Reference(c.spec)
		if err != nil {
			return results.Record{}, err
		}
		var errs []float64
		for rep := 0; rep < r.Scale.Repeats; rep++ {
			seed := stats.DeriveSeed(r.Seed, c.spec.Name, c.mach.Name, c.method.Key, strconv.Itoa(rep))
			e, n, err := b.tracedRepeat(r, t, c, p, rp, seed, tp)
			if err != nil {
				m.Failed = true
				b.chk.problem("traced %s repeat %d: %v", c, rep, err)
				continue
			}
			if len(errs) == 0 {
				m.Samples = n
			}
			errs = append(errs, e)
		}
		m.PerRepeat = errs
		if len(errs) > 0 {
			m.Err = stats.Mean(errs)
		}
		tp.cells++
		b.chk.attempted++
		if m.Failed {
			b.chk.failed++
		}
	}
	rec := c.record(r, m)
	sp := t.begin("results.Store.Put", "")
	err := st.Put(rec)
	t.end(sp)
	t.end(cs)
	if m.Supported {
		tp.cellMs = append(tp.cellMs, 1e3*t.spans[cs].dur())
	}
	return rec, err
}

// tracedRepeat is one repeat of a cell: collect (through sched.Collect
// for more than one tenant, as the scheduler itself delegates a single
// tenant to sampling.Collect), build the profile, score it.
func (b *bench) tracedRepeat(r *experiments.Runner, t *tracer, c cell, p *program.Program, rp *ref.Profile,
	seed uint64, tp *tracedPass) (float64, int, error) {

	sink := &telemetry.Sink{}
	opt := sampling.Options{PeriodBase: r.Scale.PeriodBase, Seed: seed, Engine: r.Engine, Telemetry: sink}
	name := "sampling.Collect"
	if c.tenants > 1 {
		name = "sched.Collect"
	}
	var runs []*sampling.Run
	var err error
	sp := t.begin(name, "")
	if c.tenants > 1 {
		progs := make([]*program.Program, c.tenants)
		for i := range progs {
			progs[i] = p
		}
		opt.SchedTimesliceCycles = sched.DefaultPeriodCycles
		runs, err = sched.Collect(progs, c.mach, c.method, sched.Options{Options: opt})
	} else {
		var run *sampling.Run
		run, err = sampling.Collect(p, c.mach, c.method, opt)
		runs = []*sampling.Run{run}
	}
	t.end(sp)
	snap := sink.Snapshot("")
	if verr := snap.Validate(); verr != nil {
		b.chk.problem("traced %s telemetry: %v", c, verr)
	}
	if c.tenants <= 1 {
		s := &t.spans[sp]
		s.Machine = c.mach.Name
		s.Instrs = snap.Engine.StrideInstrs + snap.Engine.EventInstrs
		for v, n := range snap.Engine.Runs {
			if n > 0 {
				s.Variant = v
			}
		}
	}
	tp.sim.addEngine(engineCounts(snap))
	if err != nil {
		return 0, 0, err
	}
	for _, run := range runs {
		tp.sim.samples += uint64(len(run.Samples))
		tp.sim.overflows += run.Overflows
		tp.sim.droppedPMIs += run.DroppedPMIs
		if s := run.Sched; s != nil {
			tp.sim.switches += s.Switches
			tp.sim.drained += s.DrainedInFlight
			tp.sim.foreign += s.ForeignSamples
			tp.sim.kernelInstrs += s.KernelLeakInstrs
		}
	}
	run := runs[0]
	var bp *profile.BlockProfile
	if run.Method.UseLBRStack {
		sp = t.begin("lbr.BuildProfile", "")
		var ds lbr.DecodeStats
		bp, ds, err = lbr.BuildProfile(p, run)
		t.end(sp)
		tp.sim.lbrStacks += uint64(ds.Stacks)
		if err != nil {
			return 0, 0, err
		}
	} else {
		sp = t.begin("profile.FromSamples", "")
		bp = profile.FromSamples(p, run)
		t.end(sp)
	}
	sp = t.begin("analysis.AccuracyError", "")
	e, err := analysis.AccuracyError(bp, rp)
	t.end(sp)
	return e, len(run.Samples), err
}

// addEngine adds a call's engine counts.
func (c *simCounts) addEngine(o simCounts) {
	c.strides += o.strides
	c.strideInstrs += o.strideInstrs
	c.eventInstrs += o.eventInstrs
	c.fusedPairs += o.fusedPairs
	for i := range c.runs {
		c.runs[i] += o.runs[i]
	}
	for i := range c.fallbacks {
		c.fallbacks[i] += o.fallbacks[i]
	}
}

// passLayers maps the span names inside a traced pass to the per-layer
// metric their self time reports. Together with the pass span's own
// self time, the residual, they cover the pass's wall time exactly.
var passLayers = []struct{ span, metric string }{
	{"sampling.Collect", "sampling.collect_s"},
	{"sched.Collect", "sched.collect_s"},
	{"lbr.BuildProfile", "lbr.build_s"},
	{"profile.FromSamples", "profile.build_s"},
	{"analysis.AccuracyError", "analysis.score_s"},
	{"results.Store.Put", "results.put_s"},
	{"report.Render", "report.render_s"},
	{"experiments.cell", "experiments.self_s"},
}

// ledgerRow is one layer's share of the traced passes.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfS  float64 `json:"self_s_per_pass"`
	Share  float64 `json:"share"`
	Metric string  `json:"metric,omitempty"`
}

// ledgerDoc is the traced run's output: the per-layer metrics, the
// ledger that splits a traced pass's wall time across the layers, and
// every span.
type ledgerDoc struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	PlainWallsS  []float64         `json:"untraced_pass_walls_s"`
	TracedWallsS []float64         `json:"traced_pass_walls_s"`
	CellTailPct  int               `json:"cell_tail_percentile"`
	CellsInTail  int               `json:"cells_beyond_tail"`
	Ledger       []ledgerRow       `json:"ledger"`
	Metrics      map[string]metric `json:"metrics"`
	Spans        []span            `json:"spans"`
}

// ledger derives the per-layer metrics from the spans and counts.
// Times are per traced pass; set-up layers come from the one traced
// set-up.
func (b *bench) ledger(t *tracer, plain []passResult, passes []tracedPass) *ledgerDoc {
	n := float64(len(passes))
	self := make([]float64, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur()
		root[i] = i
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
			root[i] = root[s.Parent]
		}
	}
	inPass := map[string]float64{}  // pass span self times by name
	outside := map[string]float64{} // set-up and load spans by name
	variantS := map[string]float64{}
	variantInstrs := map[string]float64{}
	machineS := map[string]float64{}
	var loads int
	for i, s := range t.spans {
		if t.spans[root[i]].Name != "bench.pass" {
			outside[s.Name] += self[i]
			if s.Name == "results.Load" {
				loads++
			}
			continue
		}
		inPass[s.Name] += self[i]
		if s.Name == "sampling.Collect" {
			variantS[s.Variant] += s.dur()
			variantInstrs[s.Variant] += float64(s.Instrs)
			machineS[s.Machine] += s.dur()
		}
	}

	doc := &ledgerDoc{Workload: b.w.name, Seed: b.o.seed, Spans: t.spans}
	var plainWalls, gc, alloc []float64
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
		gc = append(gc, float64(p.gcCycles))
		alloc = append(alloc, float64(p.allocBytes)/(1<<20))
	}
	var cellMs []float64
	var tracedWall float64
	for _, tp := range passes {
		w := t.spans[tp.root].dur()
		doc.TracedWallsS = append(doc.TracedWallsS, w)
		tracedWall += w
		cellMs = append(cellMs, tp.cellMs...)
	}
	doc.PlainWallsS = plainWalls
	pct, beyond := tailPercentile(len(cellMs))
	doc.CellTailPct, doc.CellsInTail = pct, beyond

	m := map[string]metric{}
	for _, l := range passLayers {
		m[l.metric] = metric{inPass[l.span] / n, "s"}
	}
	for _, v := range []string{"lean", "full"} {
		m["sampling.collect_s."+v] = metric{variantS[v] / n, "s"}
		rate := 0.0
		if variantS[v] > 0 {
			rate = variantInstrs[v] / 1e6 / variantS[v]
		}
		m["sampling.minstr_per_s."+v] = metric{rate, "Minstr/s"}
	}
	for _, mach := range machine.All() {
		m["sampling.collect_s."+mach.Name] = metric{machineS[mach.Name] / n, "s"}
	}
	sim := plain[0].sim
	tsim := passes[0].sim
	m["cpu.sim_minstr"] = metric{sim.minstr(), "Minstr"}
	m["cpu.stride_frac"] = metric{ratio(float64(sim.strideInstrs), float64(sim.strideInstrs+sim.eventInstrs)), "ratio"}
	m["cpu.instrs_per_stride"] = metric{ratio(float64(sim.strideInstrs), float64(sim.strides)), "instr"}
	m["cpu.fused_pairs"] = metric{float64(sim.fusedPairs), "count"}
	m["cpu.runs.lean"] = metric{float64(sim.runs[telemetry.VariantLean]), "count"}
	m["cpu.runs.full"] = metric{float64(sim.runs[telemetry.VariantFull]), "count"}
	for f := range sim.fallbacks {
		m["cpu.fallbacks."+telemetry.FallbackReason(f).String()] = metric{float64(sim.fallbacks[f]), "count"}
	}
	m["pmu.samples"] = metric{float64(tsim.samples), "count"}
	m["pmu.overflows"] = metric{float64(tsim.overflows), "count"}
	m["pmu.dropped_pmis"] = metric{float64(tsim.droppedPMIs), "count"}
	m["sched.switches"] = metric{float64(tsim.switches), "count"}
	m["sched.drained_in_flight"] = metric{float64(tsim.drained), "count"}
	m["sched.foreign_samples"] = metric{float64(tsim.foreign), "count"}
	m["sched.kernel_leak_minstr"] = metric{float64(tsim.kernelInstrs) / 1e6, "Minstr"}
	m["lbr.stacks"] = metric{float64(tsim.lbrStacks), "count"}
	m["workloads.build_s"] = metric{outside["experiments.Runner.Workload"], "s"}
	m["ref.collect_s"] = metric{outside["experiments.Runner.Reference"], "s"}
	m["results.records"] = metric{float64(len(b.w.cells())), "count"}
	m["results.load_s"] = metric{outside["results.Load"] / float64(max(loads, 1)), "s"}
	m["experiments.cells"] = metric{float64(passes[0].cells), "count"}
	m["experiments.cell_p50_ms"] = metric{stats.Percentile(cellMs, 50), "ms"}
	m["experiments.cell_tail_ms"] = metric{stats.Percentile(cellMs, float64(pct)), "ms"}
	m["experiments.cell_tail_pct"] = metric{float64(pct), "%"}
	m["runtime.gc_cycles"] = metric{stats.Median(gc), "count"}
	m["runtime.alloc_mb"] = metric{stats.Median(alloc), "MB"}
	m["trace.overhead_frac"] = metric{stats.Median(doc.TracedWallsS)/stats.Median(plainWalls) - 1, "ratio"}
	m["ledger.residual_frac"] = metric{ratio(inPass["bench.pass"], tracedWall), "ratio"}
	doc.Metrics = m

	for _, l := range passLayers {
		doc.Ledger = append(doc.Ledger, ledgerRow{Layer: l.span, Metric: l.metric,
			SelfS: inPass[l.span] / n, Share: ratio(inPass[l.span], tracedWall)})
	}
	sort.SliceStable(doc.Ledger, func(i, j int) bool { return doc.Ledger[i].Share > doc.Ledger[j].Share })
	doc.Ledger = append(doc.Ledger, ledgerRow{Layer: "residual (outside every span)", Metric: "ledger.residual_frac",
		SelfS: inPass["bench.pass"] / n, Share: ratio(inPass["bench.pass"], tracedWall)})
	return doc
}

// tailPercentile returns the highest whole percentile of n samples with
// at least ten samples beyond it (nearest rank), and how many are
// beyond it; 50 when there are too few samples for any higher one.
func tailPercentile(n int) (pct, beyond int) {
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= 10 {
			return p, n - rank
		}
	}
	return 50, n - int(math.Ceil(float64(n)/2))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the ledger document, spans included, to
// workdir/traces/<workload>-seed<seed>.json.
func (b *bench) writeTrace(t *tracer, doc *ledgerDoc) error {
	dir := filepath.Join(b.o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.o.seed))
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "perfbench: %d spans and the ledger written to %s\n", len(t.spans), path)
	return nil
}

// print writes the ledger as a table.
func (doc *ledgerDoc) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %s seed %d ledger over %d traced passes (%.3f s each, untraced %.3f s)\n",
		doc.Workload, doc.Seed, len(doc.TracedWallsS), stats.Median(doc.TracedWallsS), stats.Median(doc.PlainWallsS))
	for _, r := range doc.Ledger {
		fmt.Fprintf(w, "  %-32s %9.4f s  %6.2f%%  %s\n", r.Layer, r.SelfS, 100*r.Share, r.Metric)
	}
	fmt.Fprintf(w, "  cell times: p50 %.3f ms, p%d %.3f ms (%d cells beyond it)\n",
		doc.Metrics["experiments.cell_p50_ms"].Value, doc.CellTailPct,
		doc.Metrics["experiments.cell_tail_ms"].Value, doc.CellsInTail)
}
