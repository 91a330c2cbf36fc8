package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pmutrust/internal/experiments"
	"pmutrust/internal/results"
	"pmutrust/internal/stats"
	"pmutrust/internal/telemetry"
)

// options are one run's command-line settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// result is the run's JSON result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	// minPasses is the fewest timed passes a run makes, however short
	// -seconds is, so that every reported time is a median.
	minPasses = 3
	// minSetups is the fewest set-up rounds a run makes; it makes more
	// until a twentieth of -seconds has been spent setting up.
	minSetups = 5
)

// bench is the state of one run.
type bench struct {
	w   workload
	o   options
	dir string // the run's private directory of stores
	log io.Writer
	chk checks
	// refs is the reference sidecar the last set-up filled; the timed
	// passes and the interp cross-check are served from it.
	refs results.Store
}

// run executes one benchmark run of w.
func run(w workload, o options, log io.Writer) (result, error) {
	tmp := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, o: o, dir: dir, log: log}
	measure := b.untraced
	if o.trace {
		measure = b.traced
	}
	res, err := measure()
	for _, p := range b.chk.problems {
		fmt.Fprintln(log, "perfbench: check failed:", p)
	}
	return res, err
}

// untraced measures the end-to-end metrics: repeated set-up, then
// repeated passes of the Runner's table runs until -seconds have
// passed, then the correctness checks.
func (b *bench) untraced() (result, error) {
	r, setups, err := b.setups()
	if err != nil {
		return result{}, err
	}
	defer b.refs.Close()
	var passes []passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < b.o.seconds {
		p, err := b.untracedPass(r, len(passes))
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
	}
	first, digest, err := b.verify(passes)
	if err != nil {
		return result{}, err
	}
	if err := b.crossCheck(first); err != nil {
		return result{}, err
	}

	var walls, cpus, cellRates, simRates []float64
	for _, p := range passes {
		wall := p.wall.Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, p.cpu.Seconds())
		cellRates = append(cellRates, float64(p.cells)/wall)
		simRates = append(simRates, p.sim.minstr()/wall)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: records digest %s; %d set-ups, %d passes of %d cells, walls %.3f s\n",
		b.w.name, b.o.seed, digest, len(setups), len(passes), passes[0].cells, walls)
	return b.chk.result(map[string]metric{
		"wall_s":           {stats.Median(walls), "s"},
		"cells_per_s":      {stats.Median(cellRates), "1/s"},
		"sim_minstr_per_s": {stats.Median(simRates), "Minstr/s"},
		"cpu_s":            {stats.Median(cpus), "s"},
		"peak_rss_mb":      {float64(ru.Maxrss) / 1024, "MB"},
		"setup_s":          {stats.Median(setups), "s"},
	}), nil
}

// setups repeats the workload's set-up — build every grid program and
// collect its reference profile into a fresh .refs sidecar — at least
// minSetups times and until a twentieth of -seconds is spent, and
// returns the last round's Runner (its sidecar in b.refs) with every
// round's time.
func (b *bench) setups() (*experiments.Runner, []float64, error) {
	var (
		r     *experiments.Runner
		times []float64
		spent time.Duration
	)
	for len(times) < minSetups || spent < b.o.seconds/20 {
		if b.refs != nil {
			if err := b.refs.Close(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		r, d, err = b.setup(len(times), nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		spent += d
	}
	return r, times, nil
}

// setup is one set-up round: a fresh Runner whose RefStore is a fresh
// sidecar, with every grid program built and every reference collected.
// A non-nil tracer records a span around each call.
func (b *bench) setup(i int, t *tracer) (*experiments.Runner, time.Duration, error) {
	refs, err := results.Create(filepath.Join(b.dir, fmt.Sprintf("setup%03d.jsonl.refs", i)))
	if err != nil {
		return nil, 0, err
	}
	b.refs = refs
	r := b.newRunner()
	r.RefStore = refs
	runtime.GC()
	start := time.Now()
	for _, s := range b.w.specs() {
		sp := t.begin("experiments.Runner.Workload", "")
		r.Workload(s)
		t.end(sp)
		sp = t.begin("experiments.Runner.Reference", "")
		_, err := r.Reference(s)
		t.end(sp)
		if err != nil {
			refs.Close()
			return nil, 0, err
		}
	}
	return r, time.Since(start), nil
}

// newRunner returns a single-worker Runner at the workload's scale.
func (b *bench) newRunner() *experiments.Runner {
	r := experiments.NewRunner(b.w.scale, b.o.seed)
	r.Parallel = 1
	return r
}

// passResult is one pass over the workload's tables.
type passResult struct {
	wall, cpu time.Duration
	// cells counts the supported cells the pass measured, from the
	// measurements the Runner returned.
	cells int
	sim   simCounts
	store string // path of the pass's closed results store
	// gcCycles and allocBytes are the Go runtime's deltas over the pass.
	gcCycles   uint32
	allocBytes uint64
}

// untracedPass runs every table of the workload through the Runner into
// a fresh results store, with a fresh telemetry sink attached the way
// cmd/pmubench attaches one. Only the table runs and their rendering are
// timed; creating and closing the store are not.
func (b *bench) untracedPass(r *experiments.Runner, i int) (passResult, error) {
	path := filepath.Join(b.dir, fmt.Sprintf("pass%03d.jsonl", i))
	st, err := results.Create(path)
	if err != nil {
		return passResult{}, err
	}
	sink := &telemetry.Sink{}
	r.Store, r.Telemetry = st, sink
	var rendered bytes.Buffer
	var outs []outcome

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for _, t := range b.w.tables {
		o, err := t.sweep(r, &rendered)
		if err != nil {
			st.Close()
			return passResult{}, fmt.Errorf("%s: %w", t.title, err)
		}
		outs = append(outs, o...)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	r.Store, r.Telemetry = nil, nil
	if err := st.Close(); err != nil {
		return passResult{}, err
	}
	p := passResult{
		wall: wall, cpu: cpu, store: path,
		gcCycles:   m1.NumGC - m0.NumGC,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	for _, o := range outs {
		if o.supported {
			p.cells++
			b.chk.attempted++
		}
		if o.failed {
			b.chk.failed++
		}
	}
	snap := sink.Snapshot("")
	if err := snap.Validate(); err != nil {
		b.chk.problem("pass %d telemetry: %v", i, err)
	}
	p.sim = engineCounts(snap)
	return p, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
