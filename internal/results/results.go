// Package results persists per-cell sweep measurements as durable,
// diffable artifacts. A store holds JSONL Record lines, each keyed by a
// content address over the cell's full configuration tuple — (workload,
// machine, method, scale, period, base seed, repeats), the same identity
// stats.DeriveSeed hashes for the cell's random streams. Because
// measurements are deterministic functions of that tuple, a store
// doubles as a cache: a resumed sweep skips every cell whose key is
// already present and is guaranteed to reproduce the uninterrupted run
// bit for bit.
//
// Store is the backend interface and FileStore its one implementation:
// the merged records of one append-only JSONL file (single-process
// sweeps) or of a directory of per-writer JSONL shard files (distributed
// coordinator/worker sweeps, where a retried shard can legitimately
// record the same cell twice), with a deterministic duplicate rule. The
// storetest subpackage is the executable contract every backend must
// pass.
package results

import (
	"strconv"

	"pmutrust/internal/stats"
)

// SchemaV is the store line format version, bumped on incompatible
// Record changes so old artifacts fail loudly instead of misparse.
const SchemaV = 1

// Identity is the configuration tuple that fully determines one sweep
// cell's measurement. Two cells with equal identities draw the same seeds
// and therefore produce identical results.
type Identity struct {
	// Workload, Machine and Method name the grid cell.
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Method   string `json:"method"`
	// Scale names the experiment scale ("paper", "small", ...).
	Scale string `json:"scale"`
	// WorkloadScale is the scale's workload iteration multiplier.
	WorkloadScale float64 `json:"workload_scale"`
	// PeriodBase is the base sampling period in instructions.
	PeriodBase uint64 `json:"period_base"`
	// Seed is the base seed the per-repeat seeds derive from.
	Seed uint64 `json:"seed"`
	// Repeats is how many repeats were averaged.
	Repeats int `json:"repeats"`
}

// Key returns the identity's content address: a 16-hex-digit fingerprint
// over every field. The store is keyed by it, so any configuration change
// — a different seed, period, scale or repeat count — addresses different
// cells and can never serve stale measurements.
func (id Identity) Key() string {
	return stats.Fingerprint(id.Seed,
		id.Workload, id.Machine, id.Method, id.Scale,
		// 'g' formatting round-trips float64 exactly, so distinct
		// workload scales never alias.
		strconv.FormatFloat(id.WorkloadScale, 'g', -1, 64),
		strconv.FormatUint(id.PeriodBase, 10),
		strconv.Itoa(id.Repeats))
}

// RefMethod is the reserved method name under which ground-truth
// reference profiles are addressed. It can never collide with a real
// sampling method key (sampling method keys never start with "__"), so
// reference records and measurement records occupy disjoint key spaces
// even if they ever share a store — though by convention they live in a
// sidecar store of their own (see experiments.Runner.RefStore).
const RefMethod = "__ref__"

// RefData is the memoized payload of one ground-truth reference run:
// exactly the fields ref.Collect computes from a functional execution.
// A reference depends only on (workload, workload scale) — no machine,
// period or seed — so its identity zeroes every other field and uses
// RefMethod as the method.
type RefData struct {
	// Blocks is the block count of the profiled program, stored so a
	// loaded record can be validated against the program it claims to
	// describe before ExecCount is trusted.
	Blocks int `json:"blocks"`
	// NetInstructions is the total retired instruction count.
	NetInstructions uint64 `json:"net_instructions"`
	// TakenBranches is the total taken-branch count.
	TakenBranches uint64 `json:"taken_branches"`
	// ExecCount[b] is the exact execution count of block ID b.
	ExecCount []uint64 `json:"exec_count"`
}

// Record is one stored measurement: the identity that addresses it plus
// the measured payload (mirroring experiments.Measurement).
type Record struct {
	// V is the line schema version (SchemaV).
	V int `json:"v"`
	// Key is the identity's content address, stored redundantly so a
	// store file is greppable and diffs are self-describing.
	Key string `json:"key"`
	Identity
	// Err is the accuracy error averaged over successful repeats; -1 for
	// unsupported or failed cells.
	Err float64 `json:"err"`
	// PerRepeat holds the individual repeat errors, in repeat order.
	PerRepeat []float64 `json:"per_repeat,omitempty"`
	// Samples is the sample count of the first successful repeat.
	Samples int `json:"samples"`
	// Supported reports whether the machine can run the method.
	Supported bool `json:"supported"`
	// Failed reports that at least one repeat errored.
	Failed bool `json:"failed,omitempty"`
	// Ref carries the ground-truth reference payload for records
	// addressed under RefMethod; nil on measurement records.
	Ref *RefData `json:"ref,omitempty"`
}
