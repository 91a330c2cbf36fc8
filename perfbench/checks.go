package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pmutrust/internal/experiments"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
)

// crossCheckCells is how many cells the interp cross-check re-measures.
const crossCheckCells = 8

// checks accumulates a run's correctness verdict.
type checks struct {
	// attempted and failed count cells: every supported cell of every
	// pass, plus the cross-checked cells.
	attempted, failed int
	problems          []string
}

func (c *checks) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// result is the run's result line with the given metrics: correct when
// no cell failed and no check found a problem.
func (c *checks) result(m map[string]metric) result {
	return result{
		Correct:   len(c.problems) == 0 && c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   m,
	}
}

// simCounts are the simulated counts of one pass. They are pure
// functions of the workload, scale and seed, so every pass of a run, and
// every run of one seed, must produce the same values.
type simCounts struct {
	strides, strideInstrs, eventInstrs, fusedPairs uint64
	runs                                           [telemetry.NumVariants]uint64
	fallbacks                                      [telemetry.NumFallbackReasons]uint64
	// The rest is read from the sampling.Run values the traced
	// composition sees; it stays zero on untraced passes.
	samples, overflows, droppedPMIs          uint64
	switches, drained, foreign, kernelInstrs uint64
	lbrStacks                                uint64
}

// engineCounts reads the engine section of a telemetry snapshot.
func engineCounts(s telemetry.Snapshot) simCounts {
	c := simCounts{
		strides:      s.Engine.Strides,
		strideInstrs: s.Engine.StrideInstrs,
		eventInstrs:  s.Engine.EventInstrs,
		fusedPairs:   s.Engine.FusedPairs,
	}
	for v := range c.runs {
		c.runs[v] = s.Engine.Runs[telemetry.Variant(v).String()]
	}
	for f := range c.fallbacks {
		c.fallbacks[f] = s.Engine.Fallbacks[telemetry.FallbackReason(f).String()]
	}
	return c
}

// engine keeps only the counts a telemetry sink carries.
func (c simCounts) engine() simCounts {
	return simCounts{
		strides: c.strides, strideInstrs: c.strideInstrs, eventInstrs: c.eventInstrs,
		fusedPairs: c.fusedPairs, runs: c.runs, fallbacks: c.fallbacks,
	}
}

// minstr is the simulated instructions the pass retired, in millions.
func (c simCounts) minstr() float64 {
	return float64(c.strideInstrs+c.eventInstrs) / 1e6
}

// digest is the sha256 of the records' canonical JSON lines, in the
// store's canonical order.
func digest(recs []results.Record) (string, error) {
	h := sha256.New()
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return "", err
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verify checks the untraced passes: every pass stored one record per
// cell, all passes stored the same records and simulated the same
// counts, and at the default seed the records match the pinned digest.
// A cell whose record differs from pass 0's counts as failed. It
// returns pass 0's store and its records' digest.
func (b *bench) verify(passes []passResult) (*results.FileStore, string, error) {
	first, err := results.Load(passes[0].store)
	if err != nil {
		return nil, "", err
	}
	d, err := digest(first.Records())
	if err != nil {
		return nil, "", err
	}
	if n := first.Len(); n != len(b.w.cells()) {
		b.chk.problem("pass 0 stored %d records, want %d", n, len(b.w.cells()))
	}
	if b.o.seed == defaultSeed && b.w.pinned != "" && d != b.w.pinned {
		b.chk.problem("records digest %s at seed %d, pinned %s", d, b.o.seed, b.w.pinned)
	}
	for i, p := range passes[1:] {
		got, err := results.Load(p.store)
		if err != nil {
			return nil, "", err
		}
		b.sameRecords(first, got, fmt.Sprintf("pass %d", i+1))
		if p.sim != passes[0].sim {
			b.chk.problem("pass %d simulated counts %+v differ from pass 0's %+v", i+1, p.sim, passes[0].sim)
		}
	}
	return first, d, nil
}

// sameRecords requires got to hold exactly want's records; each cell
// whose record is missing, differs or is extra counts as failed.
func (b *bench) sameRecords(want, got *results.FileStore, label string) {
	bad := 0
	for _, rec := range want.Records() {
		if g, ok := got.Get(rec.Key); !ok || !sameRecord(g, rec) {
			bad++
		}
	}
	for _, rec := range got.Records() {
		if _, ok := want.Get(rec.Key); !ok {
			bad++
		}
	}
	if bad > 0 {
		b.chk.failed += bad
		b.chk.problem("%s: %d records differ from the first untraced pass's", label, bad)
	}
}

// crossCheck re-measures a fixed sample of cells with the reference
// interpreter and requires records byte-identical to the ones a timed
// pass stored in st. A cell that differs or errors counts as failed.
func (b *bench) crossCheck(st *results.FileStore) error {
	ir := b.newRunner()
	ir.Engine = sampling.EngineInterp
	ir.RefStore = b.refs
	mem := results.NewMemory()
	for _, c := range b.w.sampleCells() {
		b.chk.attempted++
		m, err := c.measure(ir)
		if err != nil {
			b.chk.failed++
			b.chk.problem("interp %s: %v", c, err)
			continue
		}
		rec := c.record(ir, m)
		if err := mem.Put(rec); err != nil {
			return err
		}
		got, _ := mem.Get(rec.Key)
		want, ok := st.Get(rec.Key)
		if !ok || !sameRecord(got, want) {
			b.chk.failed++
			b.chk.problem("interp %s: record differs from the fast engine's", c)
		}
	}
	return nil
}

// sameRecord compares two records by their canonical JSON encoding.
func sameRecord(a, b results.Record) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// sampleCells picks crossCheckCells supported cells spread over the
// workload's cells in order. The stride is one more than an even split,
// so that consecutive picks land on different methods, machines and
// tenant counts instead of the same position in each workload's block.
func (w workload) sampleCells() []cell {
	var sup []cell
	for _, c := range w.cells() {
		if c.supported() {
			sup = append(sup, c)
		}
	}
	k := min(crossCheckCells, len(sup))
	out := make([]cell, k)
	for j := range out {
		out[j] = sup[min(j*(len(sup)/k+1), len(sup)-1)]
	}
	return out
}

// measure measures c through the Runner's public Measure or
// MeasureTenants.
func (c cell) measure(r *experiments.Runner) (experiments.Measurement, error) {
	if c.tenants == 0 {
		return r.Measure(c.spec, c.mach, c.method)
	}
	tm, err := r.MeasureTenants(c.spec, c.mach, c.method, c.tenants, 0, 0)
	return experiments.Measurement{
		Workload: tm.Workload, Machine: tm.Machine, Method: tm.Method,
		Err: tm.Err, PerRepeat: tm.PerRepeat, Samples: tm.Samples,
		Supported: tm.Supported, Failed: tm.Failed,
	}, err
}

// record is c's store record for measurement m, built the way the
// Runner's store-aware sweeps build theirs.
func (c cell) record(r *experiments.Runner, m experiments.Measurement) results.Record {
	id := c.identity(r)
	return results.Record{
		Key:       id.Key(),
		Identity:  id,
		Err:       m.Err,
		PerRepeat: m.PerRepeat,
		Samples:   m.Samples,
		Supported: m.Supported,
		Failed:    m.Failed,
	}
}

func (c cell) String() string {
	s := c.spec.Name + "/" + c.mach.Name + "/" + c.method.Key
	if c.tenants > 0 {
		s += fmt.Sprintf("/n=%d", c.tenants)
	}
	return s
}
