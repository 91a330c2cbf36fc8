// Package telemetry is the zero-cost-when-disabled instrumentation layer
// of the simulator: per-run engine counters carried by the monitor chain,
// an atomic Sink that aggregates them across runs, sweeps and worker
// fleets, and a canonical JSON Snapshot that the observability surfaces
// (pmubench -telemetry/-obs-addr, pmureport -telemetry, the sweepd
// coordinator's /metrics endpoint) all render from.
//
// Design rules, enforced by the differential battery and the benchgate:
//
//   - Telemetry observes, never perturbs. Counters live outside
//     cpu.Result and sampling.Run, so bit-identity checks (DiffRuns)
//     never see them, and nothing the simulation computes ever reads
//     them back.
//   - The engine hot loop gains no per-instruction work. EngineCounters
//     increments happen only on paths that are already slow: a
//     FastHeadroom zero grant (a fallback), a BulkRetire flush (once per
//     stride), a per-instruction OnRetire delivery (event mode and the
//     reference interpreter, which pay a full monitor call anyway), and
//     once-per-run decode bookkeeping.
//   - Atomics live only in the Sink, which is published to at run / cell
//     / shard granularity. Every Sink method is safe on a nil receiver,
//     so call sites need no guards and a nil sink costs one predictable
//     branch per run, not per instruction.
//
// telemetry is a leaf package (standard library only): cpu, pmu, sched,
// sampling, experiments and sweepd all import it without cycles.
package telemetry

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"
)

// FallbackReason buckets why a FastHeadroom call granted zero
// instructions — i.e. why the fast engine fell back to per-instruction
// event mode at that point. Each zero grant increments exactly one
// bucket (the monitor chain attributes the first layer that refused),
// so the buckets always sum to the total number of fallback events.
type FallbackReason uint8

const (
	// FallbackOverflow is the overflow-adjacent window: the sampling
	// counter is within one event of its reload value, or an imprecise
	// PMI is still riding out its skid.
	FallbackOverflow FallbackReason = iota
	// FallbackArmedPEBS is an armed PEBS capture window waiting for an
	// eligible occurrence.
	FallbackArmedPEBS
	// FallbackMuxDeadline is a multiplexer rotation deadline within the
	// engine's horizon: its stride-loop fence has fired, and the
	// retirements up to the deadline run in event mode.
	FallbackMuxDeadline
	// FallbackSchedDeadline is a scheduler timeslice deadline within the
	// engine's horizon, as for FallbackMuxDeadline.
	FallbackSchedDeadline
	// FallbackIBSTag is a displaced IBS tag waiting to report.
	FallbackIBSTag
	// FallbackHW4LSB is the overflow-adjacent window under IBS hardware
	// 4-LSB period randomization, split out because tiny randomized
	// reload values keep the unit chronically near a boundary — the
	// dominant fallback cause on the AMD model.
	FallbackHW4LSB

	// NumFallbackReasons sizes per-reason arrays.
	NumFallbackReasons = int(FallbackHW4LSB) + 1
)

// String returns the snapshot key of the reason.
func (r FallbackReason) String() string {
	switch r {
	case FallbackOverflow:
		return "overflow_adjacent"
	case FallbackArmedPEBS:
		return "armed_pebs"
	case FallbackMuxDeadline:
		return "mux_deadline"
	case FallbackSchedDeadline:
		return "sched_deadline"
	case FallbackIBSTag:
		return "ibs_tag"
	case FallbackHW4LSB:
		return "hw_4lsb"
	default:
		return "unknown"
	}
}

// Variant names which execution path served a run: the fast engine's
// stride loop or the reference interpreter. The collection run body
// (sampling.RunCells) selects it from the engine; it is defined here so
// telemetry stays a leaf package.
type Variant uint8

const (
	// VariantFull is the fast engine's stride loop.
	VariantFull Variant = iota
	// VariantLean named a reduced-bookkeeping stride loop the engine no
	// longer has. No run counts it; its "lean" snapshot key stays at zero
	// so readers of the key (perfbench's ledger, older snapshots) still
	// find it.
	VariantLean
	// VariantInterp is the per-instruction reference interpreter.
	VariantInterp

	// NumVariants sizes per-variant arrays.
	NumVariants = int(VariantInterp) + 1
)

// String returns the snapshot key of the variant.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "full"
	case VariantLean:
		return "lean"
	case VariantInterp:
		return "interp"
	default:
		return "unknown"
	}
}

// EngineCounters is the per-run counter block carried by a monitor chain
// (the PMU owns one; a wrapping Mux or scheduler task shares it). Plain
// uint64s, no atomics: one chain observes one single-threaded run, and
// the whole block is published to a Sink once at run end. Incrementing
// happens only on already-slow paths — see the package comment.
type EngineCounters struct {
	// Strides counts BulkRetire flushes (one per fast-path stride);
	// StrideInstrs is the instructions they covered.
	Strides, StrideInstrs uint64
	// EventInstrs counts instructions delivered one at a time through
	// OnRetire: every instruction of an interpreter run, and the
	// event-mode (fallback) instructions of a fast-engine run.
	EventInstrs uint64
	// FusedPairs counts decode-time superinstruction fusions in the
	// run's predecoded program (cmp+jcc and ALU/mem/FP pairs) — a
	// per-run static count, recorded once at decode.
	FusedPairs uint64
	// Fallbacks buckets FastHeadroom zero grants by the layer that
	// refused; exactly one bucket increments per zero grant.
	Fallbacks [NumFallbackReasons]uint64
}

// FallbackTotal returns the total number of zero headroom grants.
func (c *EngineCounters) FallbackTotal() uint64 {
	var t uint64
	for _, v := range c.Fallbacks {
		t += v
	}
	return t
}

// Sink aggregates telemetry across runs, cells, shards and (via Snapshot
// merging) whole worker fleets. All methods are safe on a nil receiver
// — a nil *Sink is the disabled state and costs one branch per call
// site, which are all at run/cell/shard granularity.
type Sink struct {
	runs         [NumVariants]atomic.Uint64
	strides      atomic.Uint64
	strideInstrs atomic.Uint64
	eventInstrs  atomic.Uint64
	fusedPairs   atomic.Uint64
	fallbacks    [NumFallbackReasons]atomic.Uint64

	cellsMeasured atomic.Uint64
	cellsStored   atomic.Uint64
	refsMeasured  atomic.Uint64
	refsServed    atomic.Uint64
	cellWall      histogram

	leasesAcquired  atomic.Uint64
	leaseSteals     atomic.Uint64
	shardsCompleted atomic.Uint64
	heartbeats      atomic.Uint64
	hbLagMaxNs      atomic.Uint64
	hbLagSumNs      atomic.Uint64
}

// AddEngine publishes one run's counter block into the sink.
func (s *Sink) AddEngine(c *EngineCounters) {
	if s == nil || c == nil {
		return
	}
	s.strides.Add(c.Strides)
	s.strideInstrs.Add(c.StrideInstrs)
	s.eventInstrs.Add(c.EventInstrs)
	s.fusedPairs.Add(c.FusedPairs)
	for i, v := range c.Fallbacks {
		if v != 0 {
			s.fallbacks[i].Add(v)
		}
	}
}

// CountRun records which execution variant served one run.
func (s *Sink) CountRun(v Variant) {
	if s == nil {
		return
	}
	s.runs[v].Add(1)
}

// ObserveCellWall records one cell measurement's wall-clock time in the
// log-bucketed histogram.
func (s *Sink) ObserveCellWall(d time.Duration) {
	if s == nil {
		return
	}
	s.cellWall.observe(d)
}

// CountCells records a sweep's served/measured split: measured cells were
// executed this run, stored cells were served from the results store.
func (s *Sink) CountCells(measured, stored uint64) {
	if s == nil {
		return
	}
	s.cellsMeasured.Add(measured)
	s.cellsStored.Add(stored)
}

// CountRef records one reference-profile lookup (served from the memo
// store, or freshly collected).
func (s *Sink) CountRef(served bool) {
	if s == nil {
		return
	}
	if served {
		s.refsServed.Add(1)
	} else {
		s.refsMeasured.Add(1)
	}
}

// CountLease records one shard lease acquisition; a steal is a takeover
// of an expired or superseded predecessor (generation > 1).
func (s *Sink) CountLease(steal bool) {
	if s == nil {
		return
	}
	s.leasesAcquired.Add(1)
	if steal {
		s.leaseSteals.Add(1)
	}
}

// CountShardDone records one shard run to completion.
func (s *Sink) CountShardDone() {
	if s == nil {
		return
	}
	s.shardsCompleted.Add(1)
}

// ObserveHeartbeat records one lease heartbeat and how far behind its
// nominal cadence it fired (lag 0 for an on-time beat).
func (s *Sink) ObserveHeartbeat(lag time.Duration) {
	if s == nil {
		return
	}
	if lag < 0 {
		lag = 0
	}
	s.heartbeats.Add(1)
	s.hbLagSumNs.Add(uint64(lag))
	for {
		cur := s.hbLagMaxNs.Load()
		if uint64(lag) <= cur || s.hbLagMaxNs.CompareAndSwap(cur, uint64(lag)) {
			return
		}
	}
}

// Snapshot captures the sink's current totals as the canonical snapshot
// document. Safe on a nil receiver (returns the zero snapshot).
func (s *Sink) Snapshot(runID string) Snapshot {
	snap := Snapshot{Schema: SnapshotSchema, RunID: runID}
	snap.Engine.Runs = map[string]uint64{}
	snap.Engine.Fallbacks = map[string]uint64{}
	for v := Variant(0); int(v) < NumVariants; v++ {
		snap.Engine.Runs[v.String()] = 0
	}
	for r := FallbackReason(0); int(r) < NumFallbackReasons; r++ {
		snap.Engine.Fallbacks[r.String()] = 0
	}
	if s == nil {
		return snap
	}
	for v := Variant(0); int(v) < NumVariants; v++ {
		snap.Engine.Runs[v.String()] = s.runs[v].Load()
	}
	snap.Engine.Strides = s.strides.Load()
	snap.Engine.StrideInstrs = s.strideInstrs.Load()
	snap.Engine.EventInstrs = s.eventInstrs.Load()
	snap.Engine.FusedPairs = s.fusedPairs.Load()
	for r := FallbackReason(0); int(r) < NumFallbackReasons; r++ {
		v := s.fallbacks[r].Load()
		snap.Engine.Fallbacks[r.String()] = v
		snap.Engine.FallbackTotal += v
	}
	snap.Sweep.CellsMeasured = s.cellsMeasured.Load()
	snap.Sweep.CellsStored = s.cellsStored.Load()
	snap.Sweep.RefsMeasured = s.refsMeasured.Load()
	snap.Sweep.RefsServed = s.refsServed.Load()
	snap.Sweep.CellWallNs = s.cellWall.snapshot()
	snap.Fleet.LeasesAcquired = s.leasesAcquired.Load()
	snap.Fleet.LeaseSteals = s.leaseSteals.Load()
	snap.Fleet.ShardsCompleted = s.shardsCompleted.Load()
	snap.Fleet.Heartbeats = s.heartbeats.Load()
	snap.Fleet.HeartbeatLagMaxNs = s.hbLagMaxNs.Load()
	snap.Fleet.HeartbeatLagSumNs = s.hbLagSumNs.Load()
	return snap
}

// DeriveRunID derives a stable run identifier from its parts — the
// handle that ties a run's structured logs, persisted snapshots and
// results store together. The same parts always produce the same ID
// (FNV-1a over the joined parts), so a resumed sweep keeps its identity.
func DeriveRunID(parts ...string) string {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseFallbackReason maps a snapshot key back to its reason, for
// readers validating snapshot documents.
func ParseFallbackReason(key string) (FallbackReason, error) {
	for r := FallbackReason(0); int(r) < NumFallbackReasons; r++ {
		if r.String() == key {
			return r, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown fallback reason %q (want %s)",
		key, strings.Join(fallbackKeys(), ", "))
}

// fallbackKeys lists every reason key in bucket order.
func fallbackKeys() []string {
	keys := make([]string, NumFallbackReasons)
	for r := FallbackReason(0); int(r) < NumFallbackReasons; r++ {
		keys[r] = r.String()
	}
	return keys
}
