package sweepd

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"pmutrust/internal/experiments"
	"pmutrust/internal/results"
)

// runFleet runs n in-process workers over dir concurrently and returns
// their stats. In-process goroutines share nothing but the sweep
// directory, so this exercises the same lease and merge paths as real
// processes (the subprocess + SIGKILL coverage lives in the integration
// test).
func runFleet(t *testing.T, dir string, n int) []WorkerStats {
	t.Helper()
	stats := make([]WorkerStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{Dir: dir, Owner: string(rune('a' + i)), TTL: time.Second, Parallel: 2}
			stats[i], errs[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return stats
}

// TestFleetSweepByteIdenticalToSingleProcess is the core distributed
// guarantee at unit scale: two workers racing over four shards produce a
// merged store from which a fresh runner renders byte-identical
// measurements to an undistributed sweep, measuring nothing itself.
func TestFleetSweepByteIdenticalToSingleProcess(t *testing.T) {
	g := testGrid()
	dir := t.TempDir()
	p := testPlan(4)
	if err := WritePlan(dir, p); err != nil {
		t.Fatal(err)
	}

	fleet := runFleet(t, dir, 2)

	taken, completed := 0, 0
	for _, s := range fleet {
		taken += s.ShardsTaken
		completed += s.ShardsCompleted
	}
	if completed != len(p.Shards) {
		t.Fatalf("fleet completed %d shards, want %d", completed, len(p.Shards))
	}
	if taken != len(p.Shards) {
		t.Errorf("fleet took %d leases for %d shards (no worker died, so no retries expected)", taken, len(p.Shards))
	}

	// Reference: a plain single-process sweep on a fresh runner.
	refRunner := experiments.NewRunner(experiments.SmallScale(), 42)
	want, err := refRunner.Sweep(g, experiments.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Distributed render: fresh runner + merged store; everything must be
	// store-served.
	st, err := results.LoadDir(CellsDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != g.Size() {
		t.Fatalf("merged store holds %d cells, want %d", st.Len(), g.Size())
	}
	r2 := experiments.NewRunner(experiments.SmallScale(), 42)
	got, stats, err := r2.SweepCached(g, st, experiments.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Measured != 0 || stats.Cached != g.Size() {
		t.Fatalf("render stats = %+v, want all %d cells cached and 0 measured", stats, g.Size())
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("distributed render differs from single-process sweep:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestWorkerServesPredecessorCells pins the resume contract: cells a
// dead predecessor already appended are served from the merged store,
// never re-measured.
func TestWorkerServesPredecessorCells(t *testing.T) {
	dir := t.TempDir()
	p := testPlan(1)
	if err := WritePlan(dir, p); err != nil {
		t.Fatal(err)
	}
	r, err := p.Runner()
	if err != nil {
		t.Fatal(err)
	}

	// A "predecessor" measured the first 3 cells into its own shard file
	// and then died (no done marker, lease long expired).
	pre, err := results.OpenDir(CellsDir(dir), shardWriter(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	const preMeasured = 3
	for _, ref := range p.Shards[0][:preMeasured] {
		c, err := ref.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MeasureCells([]experiments.Cell{c}, pre); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	w := &Worker{Dir: dir, Owner: "successor", TTL: time.Second, Parallel: 2}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != preMeasured {
		t.Errorf("Served = %d, want %d (predecessor's cells must not be re-measured)", stats.Served, preMeasured)
	}
	if want := p.NumCells() - preMeasured; stats.Measured != want {
		t.Errorf("Measured = %d, want %d", stats.Measured, want)
	}
	if stats.ShardsCompleted != 1 {
		t.Errorf("ShardsCompleted = %d, want 1", stats.ShardsCompleted)
	}
	st, err := results.LoadDir(CellsDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != p.NumCells() {
		t.Errorf("merged store holds %d cells, want %d", st.Len(), p.NumCells())
	}
}

// TestWorkerSharesReferenceMemo pins the fleet-wide reference memo: a
// worker collects each workload's ground truth into dir/refs exactly
// once, and a worker attaching to a directory whose refs are already
// populated (a predecessor or fleet-mate collected them) serves every
// reference from the memo and re-executes none — while the measurements
// it produces stay byte-identical to an unmemoized single-process sweep.
func TestWorkerSharesReferenceMemo(t *testing.T) {
	g := testGrid()
	nWorkloads := len(g.Workloads)

	// Cold directory: the lone worker collects every reference.
	dir1 := t.TempDir()
	if err := WritePlan(dir1, testPlan(2)); err != nil {
		t.Fatal(err)
	}
	w1 := &Worker{Dir: dir1, Owner: "cold", TTL: time.Second, Parallel: 2}
	s1, err := w1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s1.RefsCollected != nWorkloads || s1.RefsServed != 0 {
		t.Errorf("cold worker refs = %d collected / %d served, want %d / 0",
			s1.RefsCollected, s1.RefsServed, nWorkloads)
	}
	refs, err := results.LoadDir(RefsDir(dir1))
	if err != nil {
		t.Fatal(err)
	}
	if refs.Len() != nWorkloads {
		t.Errorf("refs dir holds %d records, want %d", refs.Len(), nWorkloads)
	}

	// Warm directory: ground truth pre-collected (as a fleet-mate would
	// have), cells still unmeasured — the worker must serve every
	// reference and collect none.
	dir2 := t.TempDir()
	p := testPlan(2)
	if err := WritePlan(dir2, p); err != nil {
		t.Fatal(err)
	}
	r, err := p.Runner()
	if err != nil {
		t.Fatal(err)
	}
	pre, err := results.OpenDir(RefsDir(dir2), "pre")
	if err != nil {
		t.Fatal(err)
	}
	r.RefStore = pre
	for _, spec := range g.Workloads {
		if _, err := r.Reference(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := &Worker{Dir: dir2, Owner: "warm", TTL: time.Second, Parallel: 2}
	s2, err := w2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s2.RefsServed != nWorkloads || s2.RefsCollected != 0 {
		t.Errorf("warm worker refs = %d collected / %d served, want 0 / %d",
			s2.RefsCollected, s2.RefsServed, nWorkloads)
	}

	// Both sweeps must render byte-identically to a plain run: the memo
	// cannot perturb a single downstream number.
	want, err := experiments.NewRunner(experiments.SmallScale(), 42).Sweep(g, experiments.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	for _, dir := range []string{dir1, dir2} {
		st, err := results.LoadDir(CellsDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := experiments.NewRunner(experiments.SmallScale(), 42).
			SweepCached(g, st, experiments.SweepOptions{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Measured != 0 {
			t.Errorf("%s: render re-measured %d cells, want 0", dir, stats.Measured)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: memoized sweep render differs from plain sweep", dir)
		}
	}
}

// TestWorkerSkipsDoneShards: a worker attaching to a finished sweep
// exits immediately without taking a lease.
func TestWorkerSkipsDoneShards(t *testing.T) {
	dir := t.TempDir()
	p := testPlan(2)
	if err := WritePlan(dir, p); err != nil {
		t.Fatal(err)
	}
	runFleet(t, dir, 1)

	w := &Worker{Dir: dir, Owner: "late", TTL: time.Second}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsTaken != 0 || stats.Measured != 0 {
		t.Errorf("late worker stats = %+v, want nothing taken or measured", stats)
	}
}

// TestCoordinatorObservesExternalWorker: a coordinator with no local
// fleet plans the sweep, watches an externally attached (in-process)
// worker drain it, streams progress, and returns once every shard is
// done-marked.
func TestCoordinatorObservesExternalWorker(t *testing.T) {
	dir := t.TempDir()
	var progress bytes.Buffer
	c := &Coordinator{
		Dir:          dir,
		Plan:         testPlan(3),
		Progress:     &progress,
		PollInterval: 20 * time.Millisecond,
	}

	workerDone := make(chan error, 1)
	go func() {
		w := &Worker{Dir: dir, Owner: "ext", TTL: time.Second, Parallel: 2}
		_, err := w.Run()
		workerDone <- err
	}()

	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "shards 3/3 done") {
		t.Errorf("progress stream missing completion line:\n%s", out)
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{CellsDone: 3, CellsTotal: 12, ShardsDone: 1, ShardsTotal: 4,
		Elapsed: 90 * time.Second, ETA: 270 * time.Second}
	s := p.String()
	for _, want := range []string{"cells 3/12", "25.0%", "shards 1/4 done", "1m30s", "4m30s"} {
		if !strings.Contains(s, want) {
			t.Errorf("Progress.String() = %q, missing %q", s, want)
		}
	}
	if s := (Progress{CellsTotal: 5, ETA: -1}).String(); !strings.Contains(s, "eta ?") {
		t.Errorf("unknown ETA renders %q, want 'eta ?'", s)
	}
}
