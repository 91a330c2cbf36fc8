package sweepd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"pmutrust/internal/experiments"
	"pmutrust/internal/pool"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
)

// Fault injects failures into a worker for the crash/resume test
// harness. It is exported so the integration tests (and any operator
// drill) can exercise the exact code paths a production kill takes:
// faults act at the record-append boundary of the real worker loop, not
// in a simulation of it.
type Fault struct {
	// KillAfterRecords, when > 0, raises SIGKILL on the worker's own
	// process immediately after it has appended this many records — a
	// deterministic "worker died mid-shard". SIGKILL (not os.Exit) so no
	// deferred cleanup, lease release or stream flush runs, exactly like
	// an OOM kill.
	KillAfterRecords int
	// TornTail additionally writes half a record (no trailing newline)
	// to the worker's shard file just before the kill, simulating death
	// mid-append. Merge-on-read must drop exactly that fragment.
	TornTail bool
	// StallAfterRecords, when > 0, puts the worker to sleep for Stall
	// after appending this many records, while its heartbeat keeps the
	// lease alive — a deterministic window for an *external* SIGKILL.
	StallAfterRecords int
	// Stall is the stall duration (default 1 minute).
	Stall time.Duration
	// StallMarker, when non-empty, is a file path written with this
	// process's pid as the stall begins, so the killer knows exactly when
	// (and whom) to shoot.
	StallMarker string
}

// WorkerStats summarizes one worker's run. It is a projection of the
// worker's telemetry snapshot (see StatsFromSnapshot): the console
// summary and the /metrics document are derived from the same counters,
// so the two can never disagree.
type WorkerStats struct {
	// ShardsCompleted counts shards this worker ran to completion and
	// done-marked; ShardsTaken counts every lease it won (including
	// shards later abandoned to a supersession).
	ShardsCompleted, ShardsTaken int
	// Measured counts cells this worker dispatched, whatever the
	// outcome (a failed cell is measured but not appended); Served
	// counts cells of its shards that merge-on-read found already
	// complete (a predecessor measured them before dying).
	Measured, Served int
	// RefsCollected counts ground-truth reference profiles this worker
	// executed; RefsServed counts those it loaded from the sweep's
	// shared reference memo (dir/refs) without re-executing.
	RefsCollected, RefsServed int
}

// StatsFromSnapshot projects a telemetry snapshot onto the worker's
// console-summary shape — the single source both surfaces render from.
func StatsFromSnapshot(s telemetry.Snapshot) WorkerStats {
	return WorkerStats{
		ShardsCompleted: int(s.Fleet.ShardsCompleted),
		ShardsTaken:     int(s.Fleet.LeasesAcquired),
		Measured:        int(s.Sweep.CellsMeasured),
		Served:          int(s.Sweep.CellsStored),
		RefsCollected:   int(s.Sweep.RefsMeasured),
		RefsServed:      int(s.Sweep.RefsServed),
	}
}

// Worker is one member of a sweep fleet: it claims shards from the plan
// in dir through expiring leases, measures each shard's missing cells
// into its own (shard, generation) file, and exits when every shard of
// the sweep is done-marked — regardless of who finished them.
type Worker struct {
	// Dir is the shared sweep directory (plan, leases, cells, done).
	Dir string
	// Owner uniquely identifies this worker in lease files; "" derives
	// host-pid.
	Owner string
	// TTL is the lease time-to-live. Heartbeats run at TTL/3, so a
	// worker that dies stops renewing and its shard becomes claimable
	// within one TTL. 0 means DefaultLeaseTTL.
	TTL time.Duration
	// Parallel bounds the worker's intra-shard measurement parallelism
	// (<= 0: GOMAXPROCS).
	Parallel int
	// Engine selects the execution engine (results are engine-independent).
	Engine sampling.EngineMode
	// Logger, when non-nil, receives one structured record per shard
	// event, carrying the run ID, shard, and lease generation as attrs
	// (see telemetry.NewLogger).
	Logger *slog.Logger
	// Fault, when non-nil, injects failures for the test harness.
	Fault *Fault
	// Now is the clock (nil: time.Now). Tests inject it to control
	// expiry without sleeping.
	Now func() time.Time

	faultPuts atomic.Int64
	// sink aggregates this worker's telemetry; Run persists snapshots of
	// it under dir/telemetry/ for the coordinator's fleet-merged view.
	sink *telemetry.Sink
}

// DefaultLeaseTTL balances takeover latency (a dead worker's shard is
// unclaimable for up to one TTL) against heartbeat traffic and clock
// skew tolerance on shared filesystems.
const DefaultLeaseTTL = 10 * time.Second

func (w *Worker) now() time.Time {
	if w.Now != nil {
		return w.Now()
	}
	return time.Now()
}

// log returns the worker's structured logger, or a discarding one when
// none is attached.
func (w *Worker) log() *slog.Logger {
	if w.Logger != nil {
		return w.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// persist writes the worker's current snapshot under dir/telemetry/ so
// the coordinator's observability plane can serve a fleet-merged view
// mid-run. Best-effort: a failed write warns and the sweep continues —
// telemetry must never take down a measurement.
func (w *Worker) persist(runID string) {
	snap := w.sink.Snapshot(runID)
	// Each persisted worker snapshot claims one worker, so the merged
	// fleet document counts fleet members (the Sink itself cannot know).
	snap.Fleet.Workers = 1
	if err := telemetry.WriteSnapshot(telemetry.Dir(w.Dir), "worker-"+w.Owner, snap); err != nil {
		w.log().Warn("telemetry snapshot write failed", "err", err)
	}
}

// readPlanWait polls for the plan file, tolerating a worker that
// attaches moments before its coordinator finishes planning.
func readPlanWait(dir string, patience time.Duration, now func() time.Time) (*Plan, error) {
	deadline := now().Add(patience)
	for {
		p, err := ReadPlan(dir)
		if err == nil || !os.IsNotExist(err) {
			return p, err
		}
		if now().After(deadline) {
			return nil, fmt.Errorf("sweepd: no plan in %s after %v: %w", dir, patience, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// Run executes the worker loop until every shard of the plan is done.
// Measurement failures are collected per cell and joined into the
// returned error (the shard is still done-marked: failed cells are never
// stored, so a later render pass retries them — the same contract as
// single-process SweepCached). Supersession is not an error.
func (w *Worker) Run() (stats WorkerStats, err error) {
	if w.Owner == "" {
		w.Owner = ownerID()
	}
	if w.TTL <= 0 {
		w.TTL = DefaultLeaseTTL
	}
	w.sink = &telemetry.Sink{}
	p, err := readPlanWait(w.Dir, 10*time.Second, w.now)
	if err != nil {
		return stats, err
	}
	// The plan fingerprint is the sweep's run ID: every fleet member logs
	// and persists telemetry under it, which is what ties a shard file in
	// the results store to the log lines and snapshots that produced it.
	log := w.log().With("run_id", p.Fingerprint, "worker", w.Owner)
	r, err := p.Runner()
	if err != nil {
		return stats, err
	}
	r.Engine = w.Engine
	r.Telemetry = w.sink
	// Attach the fleet-shared reference memo: ground truth collected by
	// any earlier (or concurrent) fleet member is served from dir/refs
	// instead of re-executed. The owner name keeps this worker's appends
	// in a file of their own, like a cells shard.
	refs, err := results.OpenDir(RefsDir(w.Dir), w.Owner)
	if err != nil {
		return stats, err
	}
	defer refs.Close()
	r.RefStore = refs
	// The returned stats are a projection of the final snapshot — the
	// same document the observability plane serves — and that snapshot is
	// persisted no matter how the run ends.
	defer func() {
		w.persist(p.Fingerprint)
		stats = StatsFromSnapshot(w.sink.Snapshot(p.Fingerprint))
	}()

	n := len(p.Shards)
	// Stagger each worker's claim order by its owner hash so a fleet
	// spreads over the shards instead of stampeding shard 0.
	h := fnv.New32a()
	h.Write([]byte(w.Owner))
	start := 0
	if n > 0 {
		start = int(h.Sum32()) % n
	}

	var failures []error
	for {
		allDone, progress := true, false
		for k := 0; k < n; k++ {
			s := (start + k) % n
			done, err := isDone(doneDir(w.Dir), s)
			if err != nil {
				return stats, err
			}
			if done {
				continue
			}
			allDone = false
			lease, err := Acquire(leasesDir(w.Dir), s, w.Owner, w.TTL, w.now())
			if errors.Is(err, ErrHeld) {
				continue
			}
			if err != nil {
				return stats, err
			}
			progress = true
			// Generation 1 is a first claim; anything later is a takeover
			// of an expired or superseded predecessor — a steal.
			w.sink.CountLease(lease.Gen > 1)
			log.Info("claimed shard", "shard", s, "gen", lease.Gen, "cells", len(p.Shards[s]))
			err = w.runShard(p, r, s, lease, log)
			switch {
			case errors.Is(err, ErrSuperseded):
				log.Warn("abandoned shard", "shard", s, "gen", lease.Gen, "err", err)
			case err != nil:
				failures = append(failures, fmt.Errorf("shard %d: %w", s, err))
			default:
				w.sink.CountShardDone()
				log.Info("completed shard", "shard", s, "gen", lease.Gen)
			}
			w.persist(p.Fingerprint)
		}
		if allDone {
			return stats, errors.Join(failures...)
		}
		if !progress {
			// Every remaining shard is leased by someone else: wait for
			// done markers to appear or leases to expire.
			time.Sleep(waitSlice(w.TTL))
		}
	}
}

// waitSlice is the idle poll interval: responsive at test-scale TTLs,
// gentle on shared filesystems at production ones.
func waitSlice(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// shardWriter names the results file of one (shard, generation) — the
// lease protocol guarantees a unique live owner per generation, which is
// what lets the file be single-writer.
func shardWriter(shard int, gen uint64) string {
	return fmt.Sprintf("shard-%04d.g%06d", shard, gen)
}

// runShard measures the shard's missing cells into this generation's
// file under a heartbeat, one group of cells that share executions at a
// time. On supersession it stops between groups and returns
// ErrSuperseded without done-marking; completed appends stay.
func (w *Worker) runShard(p *Plan, r *experiments.Runner, shard int, lease *Lease, log *slog.Logger) error {
	st, err := results.OpenDir(CellsDir(w.Dir), shardWriter(shard, lease.Gen))
	if err != nil {
		return err
	}
	defer st.Close()

	// Resolve refs and serve the cells already present — the
	// merge-on-read that makes a predecessor's completed cells final.
	cells := make([]experiments.Cell, len(p.Shards[shard]))
	for i, ref := range p.Shards[shard] {
		if cells[i], err = ref.Resolve(); err != nil {
			return err
		}
	}
	groups := r.ServeCells(cells, st)

	// Heartbeat at TTL/3 until the shard is finished; a failed or
	// superseded heartbeat flips the stop flag the measure loop checks
	// between groups, so a superseded worker may still append the rest
	// of the group in hand. Each beat also observes its own scheduling lag and
	// persists a snapshot, so a live worker's telemetry is visible to the
	// coordinator's observability plane mid-shard.
	var superseded atomic.Bool
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	interval := w.TTL / 3
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		// Lag is measured against the real clock even when w.Now is
		// injected: the ticker runs on real time regardless.
		lastBeat := time.Now()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				beat := time.Now()
				w.sink.ObserveHeartbeat(beat.Sub(lastBeat) - interval)
				lastBeat = beat
				if err := lease.Heartbeat(w.TTL, w.now()); err != nil {
					superseded.Store(true)
					return
				}
				w.persist(p.Fingerprint)
			}
		}
	}()
	stopHeartbeat := func() {
		close(hbStop)
		<-hbDone
	}

	// One job per group of missing cells (a shard boundary may split a
	// (workload, machine), so groups never span shards). A failed cell
	// is not stored: it stays missing and a later owner or render pass
	// retries it.
	fst := faultStore{st, w}
	err = pool.ForEach(len(groups), w.Parallel, 0, func(i int) error {
		if superseded.Load() {
			return nil // abandoned: the new owner measures the rest
		}
		_, err := r.MeasureCells(groups[i], fst)
		return err
	})
	stopHeartbeat()
	if superseded.Load() {
		return fmt.Errorf("shard %d gen %d: %w", shard, lease.Gen, ErrSuperseded)
	}
	// Sync records before the done marker so "done" implies durable.
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if derr := markDone(doneDir(w.Dir), shard, w.Owner, lease.Gen); derr != nil && err == nil {
		err = derr
	}
	return err
}

// faultStore appends a shard's records and advances the worker's
// fault-injection state after each append.
type faultStore struct {
	*results.FileStore
	w *Worker
}

// Put implements results.Store.
func (s faultStore) Put(rec results.Record) error {
	if err := s.FileStore.Put(rec); err != nil {
		return err
	}
	s.w.faultStep(s.FileStore)
	return nil
}

// faultStep advances the fault-injection state after one appended
// record.
func (w *Worker) faultStep(st *results.FileStore) {
	f := w.Fault
	if f == nil {
		return
	}
	n := int(w.faultPuts.Add(1))
	if f.StallAfterRecords > 0 && n == f.StallAfterRecords {
		stall := f.Stall
		if stall <= 0 {
			stall = time.Minute
		}
		w.log().Info("fault: stalling", "stall", stall, "records", n)
		if f.StallMarker != "" {
			os.WriteFile(f.StallMarker, []byte(strconv.Itoa(os.Getpid())), 0o644)
		}
		time.Sleep(stall)
	}
	if f.KillAfterRecords > 0 && n == f.KillAfterRecords {
		if f.TornTail {
			// Half a record, no newline: the bytes a kill lands on
			// mid-write. Written through a raw append so it bypasses the
			// store's framing entirely.
			if fh, err := os.OpenFile(st.WriterPath(), os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
				fh.WriteString(`{"v":1,"key":"torn-mid-wri`)
				fh.Close()
			}
		}
		w.log().Info("fault: SIGKILL self", "records", n)
		proc, err := os.FindProcess(os.Getpid())
		if err == nil {
			proc.Kill() // SIGKILL on Unix: no deferred cleanup runs
		}
		select {} // unreachable once the signal lands
	}
}
