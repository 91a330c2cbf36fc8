package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pmutrust/internal/machine"
	"pmutrust/internal/pool"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// sweepGrid is the small-scale grid the concurrency tests run: two
// kernels across every machine and every Table 3 method, which exercises
// unsupported cells (Magny-Cours LBR) as well as supported ones.
func sweepGrid() Grid {
	return Grid{
		Workloads: workloads.Kernels()[:2],
		Machines:  machine.All(),
		Methods:   sampling.Registry(),
	}
}

func TestGridCellsOrder(t *testing.T) {
	g := sweepGrid()
	cells := g.Cells()
	if len(cells) != g.Size() {
		t.Fatalf("Cells() = %d, Size() = %d", len(cells), g.Size())
	}
	// Methods innermost, workloads outermost.
	nm := len(g.Methods)
	if cells[0].Method.Key != g.Methods[0].Key || cells[1].Method.Key != g.Methods[1].Key {
		t.Error("methods not innermost")
	}
	if cells[nm].Machine.Name != g.Machines[1].Name {
		t.Error("machines not middle")
	}
	if cells[len(cells)-1].Workload.Name != g.Workloads[len(g.Workloads)-1].Name {
		t.Error("workloads not outermost")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the core sweep guarantee:
// the same grid on fresh runners produces byte-identical measurement
// sets at worker counts 1 and 8 (run through JSON so "byte-identical"
// is literal). Not skipped in -short mode so the CI race job covers the
// worker pool.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g := sweepGrid()
	var got [][]byte
	for _, workers := range []int{1, 8} {
		r := NewRunner(SmallScale(), 42)
		ms, err := r.Sweep(g, SweepOptions{Parallel: workers})
		if err != nil {
			t.Fatalf("Sweep(parallel=%d): %v", workers, err)
		}
		if len(ms) != g.Size() {
			t.Fatalf("Sweep(parallel=%d): %d results, want %d", workers, len(ms), g.Size())
		}
		b, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("worker counts 1 and 8 disagree:\n1: %s\n8: %s", got[0], got[1])
	}
}

// TestSweepMatchesSequentialMeasure pins the sweep to the Measure it
// wraps: cell i of the sweep equals a direct Measure of cell i.
func TestSweepMatchesSequentialMeasure(t *testing.T) {
	g := Grid{
		Workloads: workloads.Kernels()[:1],
		Machines:  []machine.Machine{machine.IvyBridge()},
		Methods:   sampling.Registry(),
	}
	r := NewRunner(SmallScale(), 7)
	ms, err := r.Sweep(g, SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct := NewRunner(SmallScale(), 7)
	for i, c := range g.Cells() {
		want, err := direct.Measure(c.Workload, c.Machine, c.Method)
		if err != nil {
			t.Fatal(err)
		}
		if ms[i].Err != want.Err || ms[i].Samples != want.Samples {
			t.Errorf("cell %d (%s/%s/%s): sweep %+v, direct %+v",
				i, c.Workload.Name, c.Machine.Name, c.Method.Key, ms[i], want)
		}
	}
}

// TestRepeatSeedsNoCollision checks the full evaluation grid (all
// workloads × machines × methods × paper repeats) derives pairwise
// distinct seeds.
func TestRepeatSeedsNoCollision(t *testing.T) {
	r := NewRunner(PaperScale(), 42)
	seen := make(map[uint64]string)
	for _, spec := range workloads.All() {
		for _, mach := range machine.All() {
			for _, m := range sampling.Registry() {
				for rep := 0; rep < r.Scale.Repeats; rep++ {
					s := r.RepeatSeed(spec, mach, m, rep)
					id := spec.Name + "/" + mach.Name + "/" + m.Key
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision: %s rep %d and %s share %#x", id, rep, prev, s)
					}
					seen[s] = id
				}
			}
		}
	}
}

// TestRunnerConcurrentSingleFlight hammers the caches from many
// goroutines: every caller must get the same built program and the same
// reference profile (single-flight), with no data race (-race in CI).
func TestRunnerConcurrentSingleFlight(t *testing.T) {
	r := NewRunner(SmallScale(), 1)
	spec, err := workloads.ByName("LatencyBiased")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	progs := make([]interface{}, n)
	refs := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i] = r.Workload(spec)
			rp, err := r.Reference(spec)
			if err != nil {
				t.Error(err)
				return
			}
			refs[i] = rp
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent Workload calls built the program more than once")
		}
		if refs[i] != refs[0] {
			t.Fatal("concurrent Reference calls collected the reference more than once")
		}
	}
}

func TestSweepTimeout(t *testing.T) {
	r := NewRunner(SmallScale(), 1)
	ms, err := r.Sweep(sweepGrid(), SweepOptions{Parallel: 2, Timeout: time.Nanosecond})
	if !errors.Is(err, pool.ErrTimeout) {
		t.Fatalf("expected pool.ErrTimeout in chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "experiments: sweep timed out") {
		t.Fatalf("timeout error lost its message: %v", err)
	}
	// Abandoned cells keep their identity (no anonymous zero values) and
	// carry the Failed marker, so they cannot be mistaken for measured
	// unsupported-on-hardware cells (Failed false).
	abandoned := 0
	for i, c := range sweepGrid().Cells() {
		m := ms[i]
		if m.Workload != c.Workload.Name || m.Machine != c.Machine.Name || m.Method != c.Method.Key {
			t.Fatalf("cell %d lost identity: %+v", i, m)
		}
		if m.Failed {
			abandoned++
		}
	}
	if abandoned == 0 {
		t.Error("1ns timeout abandoned no cells")
	}
}

// TestMeasurePartialFailure drives Measure through repeats that all fail
// (zero period base makes sampling.Collect reject every repeat): the
// error must name each failed repeat, and the measurement must keep its
// identity fields rather than vanish.
func TestMeasurePartialFailure(t *testing.T) {
	s := SmallScale()
	s.PeriodBase = 0
	s.Repeats = 2
	r := NewRunner(s, 1)
	spec, _ := workloads.ByName("LatencyBiased")
	m, _ := sampling.MethodByKey("classic")
	meas, err := r.Measure(spec, machine.IvyBridge(), m)
	if err == nil {
		t.Fatal("expected error from zero period base")
	}
	for _, want := range []string{"repeat 0", "repeat 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if !meas.Supported || len(meas.PerRepeat) != 0 || meas.Samples != 0 {
		t.Errorf("partial measurement: %+v", meas)
	}
	// A dead cell must not read as measured: Err is the -1 sentinel and
	// Failed is set.
	if meas.Err != -1 || !meas.Failed {
		t.Errorf("failed cell not marked: Err=%v Failed=%v", meas.Err, meas.Failed)
	}
	if meas.Workload != spec.Name || meas.Method != m.Key {
		t.Errorf("measurement identity lost: %+v", meas)
	}
}

// TestMeasureSamplesDeterministic pins Samples to the first repeat's
// sample count: Measure must agree with a direct MeasureOnce at the
// repeat-0 seed, whatever the repeat count.
func TestMeasureSamplesDeterministic(t *testing.T) {
	s := SmallScale()
	s.Repeats = 3
	r := NewRunner(s, 9)
	spec, _ := workloads.ByName("G4Box")
	mach := machine.IvyBridge()
	m, _ := sampling.MethodByKey("precise+prime+rand")
	meas, err := r.Measure(spec, mach, m)
	if err != nil {
		t.Fatal(err)
	}
	_, run0, err := r.MeasureOnce(spec, mach, m, r.RepeatSeed(spec, mach, m, 0))
	if err != nil {
		t.Fatal(err)
	}
	if meas.Samples != len(run0.Samples) {
		t.Errorf("Samples = %d, repeat-0 count = %d", meas.Samples, len(run0.Samples))
	}
}
