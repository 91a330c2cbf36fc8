// Package sweepd turns the one-shot sweep CLI into a sharded, resumable
// fleet: a coordinator partitions a (workload × machine × method) cell
// grid into leased shards, N worker processes claim shards through
// expiring lease files on a shared filesystem, and every completed cell
// is appended to a per-(shard, lease-generation) JSONL file that readers
// merge on read (results.OpenDir / results.LoadDir). Because each cell is a pure,
// content-addressed function of its identity, a distributed sweep — even
// one that loses workers to SIGKILL mid-shard and retries their leases —
// renders byte-identically to a single-process run; the package's
// fault-injection test harness proves exactly that.
//
// Directory layout of a sweep (all under one shared root):
//
//	dir/plan.json                      the fingerprinted shard plan
//	dir/leases/shard-0003.g000002.json generation-numbered lease files
//	dir/cells/shard-0003.g000002.jsonl per-owner result shard files
//	dir/done/shard-0003.json           shard completion markers
//	dir/refs/<owner>.jsonl             memoized ground-truth references
package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// PlanV is the plan file format version, bumped on incompatible changes
// so stale sweep directories fail loudly instead of misparse.
const PlanV = 1

// CellRef names one grid cell by its coordinates. Workers resolve refs
// back to specs through the registries, so a plan is valid exactly when
// every ref names a registered workload, machine and method.
type CellRef struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Method   string `json:"method"`
}

// Plan is the coordinator-written contract of one distributed sweep: the
// full cell grid partitioned into shards, plus every knob that feeds the
// cells' content addresses. Workers reconstruct their Runner from it, so
// two processes of the same binary derive identical cell identities —
// the property that makes distributed results interchangeable with
// single-process ones.
type Plan struct {
	// V is the plan format version (PlanV).
	V int `json:"v"`
	// Experiment names the matrix experiment being swept ("table1",
	// "table2", "phased") — the coordinator's final render uses it; the
	// workers only need the cells.
	Experiment string `json:"experiment"`
	// Scale is the experiment scale name, resolved per process through
	// experiments.ScaleByName.
	Scale string `json:"scale"`
	// Seed is the base seed every cell's streams derive from.
	Seed uint64 `json:"seed"`
	// Fingerprint is a content address over every other field. ReadPlan
	// verifies it, and WritePlan refuses to overwrite a plan with a
	// different fingerprint — attaching workers to the wrong sweep, or
	// resuming one under changed configuration, fails loudly.
	Fingerprint string `json:"fingerprint"`
	// Shards holds the partitioned cell grid: contiguous, balanced
	// chunks of the canonical Grid.Cells order.
	Shards [][]CellRef `json:"shards"`
}

// planName is the plan file name under the sweep dir.
const planName = "plan.json"

// leasesDir, cellsDir and doneDir name the sweep-dir subdirectories.
func leasesDir(dir string) string { return filepath.Join(dir, "leases") }
func doneDir(dir string) string   { return filepath.Join(dir, "done") }

// CellsDir returns the shard-file directory of a sweep dir — the
// directory results.LoadDir merges to read a distributed sweep's
// records. Exported for the CLIs (pmureport renders straight from it).
func CellsDir(dir string) string { return filepath.Join(dir, "cells") }

// RefsDir returns the reference-memo directory of a sweep dir: a
// shard directory (results.OpenDir) holding the fleet's ground-truth profiles under the
// reserved results.RefMethod key. Every worker appends to its own shard
// file there (writer-named, like cells), so each (workload, scale)
// reference is executed at most once per fleet member — and exactly
// once for the common case of one worker reaching it first and the rest
// attaching after its append is visible. Exported for the CLIs.
func RefsDir(dir string) string { return filepath.Join(dir, "refs") }

// InitDir creates the sweep directory layout.
func InitDir(dir string) error {
	for _, d := range []string{dir, leasesDir(dir), CellsDir(dir), doneDir(dir), RefsDir(dir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("sweepd: init dir: %w", err)
		}
	}
	return nil
}

// NewPlan partitions g into at most shards contiguous chunks of the
// canonical cell order (never more than one shard per cell; at least
// one shard). The split is a pure function of (grid, shards), so
// re-planning the same sweep reproduces the same fingerprint.
func NewPlan(experiment string, scale experiments.Scale, seed uint64, g experiments.Grid, shards int) *Plan {
	cells := g.Cells()
	if shards < 1 {
		shards = 1
	}
	if shards > len(cells) && len(cells) > 0 {
		shards = len(cells)
	}
	p := &Plan{V: PlanV, Experiment: experiment, Scale: scale.Name, Seed: seed}
	for s := 0; s < shards; s++ {
		lo, hi := s*len(cells)/shards, (s+1)*len(cells)/shards
		chunk := make([]CellRef, 0, hi-lo)
		for _, c := range cells[lo:hi] {
			chunk = append(chunk, CellRef{
				Workload: c.Workload.Name,
				Machine:  c.Machine.Name,
				Method:   c.Method.Key,
			})
		}
		p.Shards = append(p.Shards, chunk)
	}
	p.Fingerprint = p.fingerprint()
	return p
}

// fingerprint content-addresses every plan field except Fingerprint
// itself.
func (p *Plan) fingerprint() string {
	labels := []string{
		strconv.Itoa(p.V), p.Experiment, p.Scale,
		strconv.Itoa(len(p.Shards)),
	}
	for _, shard := range p.Shards {
		labels = append(labels, strconv.Itoa(len(shard)))
		for _, c := range shard {
			labels = append(labels, c.Workload, c.Machine, c.Method)
		}
	}
	return stats.Fingerprint(p.Seed, labels...)
}

// NumCells returns the total cell count across shards.
func (p *Plan) NumCells() int {
	n := 0
	for _, s := range p.Shards {
		n += len(s)
	}
	return n
}

// Runner builds the experiments Runner every process of the fleet
// measures through: scale resolved by name, the plan's seed.
func (p *Plan) Runner() (*experiments.Runner, error) {
	scale, err := experiments.ScaleByName(p.Scale)
	if err != nil {
		return nil, fmt.Errorf("sweepd: plan: %w", err)
	}
	return experiments.NewRunner(scale, p.Seed), nil
}

// Resolve maps a cell ref back to the runnable cell through the
// workload, machine and method registries.
func (ref CellRef) Resolve() (experiments.Cell, error) {
	spec, err := workloads.ByName(ref.Workload)
	if err != nil {
		return experiments.Cell{}, fmt.Errorf("sweepd: plan cell: %w", err)
	}
	mach, err := machine.ByName(ref.Machine)
	if err != nil {
		return experiments.Cell{}, fmt.Errorf("sweepd: plan cell: %w", err)
	}
	m, err := sampling.MethodByKey(ref.Method)
	if err != nil {
		return experiments.Cell{}, fmt.Errorf("sweepd: plan cell: %w", err)
	}
	return experiments.Cell{Workload: spec, Machine: mach, Method: m}, nil
}

// WritePlan persists p under dir, creating the sweep layout. The write
// is atomic (temp + rename), and an existing plan is only accepted when
// its fingerprint matches — resuming the same sweep is a no-op, while
// pointing a coordinator at a directory holding a *different* sweep is
// an error rather than silent cross-contamination.
func WritePlan(dir string, p *Plan) error {
	if err := InitDir(dir); err != nil {
		return err
	}
	if existing, err := ReadPlan(dir); err == nil {
		if existing.Fingerprint != p.Fingerprint {
			return fmt.Errorf("sweepd: %s already holds a different sweep (plan fingerprint %s, want %s); use a fresh directory",
				dir, existing.Fingerprint, p.Fingerprint)
		}
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("sweepd: marshal plan: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, planName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sweepd: write plan: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, planName)); err != nil {
		return fmt.Errorf("sweepd: write plan: %w", err)
	}
	return nil
}

// ReadPlan loads and verifies dir's plan. A missing plan file returns an
// error satisfying os.IsNotExist, so workers can poll for a coordinator
// that has not planned yet.
func ReadPlan(dir string) (*Plan, error) {
	data, err := os.ReadFile(filepath.Join(dir, planName))
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("sweepd: parse plan: %w", err)
	}
	if p.V != PlanV {
		return nil, fmt.Errorf("sweepd: plan version v%d, want v%d", p.V, PlanV)
	}
	if got := p.fingerprint(); got != p.Fingerprint {
		return nil, fmt.Errorf("sweepd: plan fingerprint mismatch (file says %s, content hashes to %s)",
			p.Fingerprint, got)
	}
	return &p, nil
}
