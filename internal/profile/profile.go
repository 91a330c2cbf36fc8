// Package profile turns raw PMU samples into basic-block profiles, the
// way profiling tools do: attribute each sample to a block, optionally
// apply the LBR-based IP+1 correction, and estimate per-block instruction
// counts by spreading each sample over its block ("tools average samples
// across all instructions in the same block", §3.1).
//
// The package also aggregates block profiles to function granularity and
// produces rankings, which the paper uses for its FullCMS top-10 ordering
// observation (§5.2).
package profile

import (
	"sort"

	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
)

// BlockProfile is an estimated basic-block profile.
type BlockProfile struct {
	// Prog is the profiled program.
	Prog *program.Program
	// Samples[b] is the number of raw samples attributed to block b.
	Samples []float64
	// ExecEstimate[b] is the estimated execution count of block b.
	ExecEstimate []float64
	// InstrEstimate[b] is the estimated number of instructions retired in
	// block b (the quantity the paper's accuracy metric compares).
	InstrEstimate []float64
	// TotalSamples is the number of samples consumed.
	TotalSamples int
}

// NewBlockProfile returns an empty profile for p.
func NewBlockProfile(p *program.Program) *BlockProfile {
	n := p.NumBlocks()
	return &BlockProfile{
		Prog:          p,
		Samples:       make([]float64, n),
		ExecEstimate:  make([]float64, n),
		InstrEstimate: make([]float64, n),
	}
}

// FromSamples builds a block profile from an EBS run the way a sampling
// tool would: each sample is worth Period events; a sample attributed to
// block b contributes Period instructions to b, spread as Period/len(b)
// execution counts (in-block averaging).
//
// The method's Fix selects the attribution-time IP correction. For methods
// whose event is uop-based (AMD IBS), the tool cannot know the workload's
// true uops-per-instruction ratio and assumes the conventional 1.25, so
// blocks with unusual uop density are mis-estimated — exactly the
// deficiency §6.2 attributes to IBS.
//
// Note: this is the plain-EBS path. For methods that consume full LBR
// stacks use internal/lbr.BuildProfile instead; internal/lbr.Profile
// picks the right one for a run's method.
func FromSamples(prog *program.Program, run *sampling.Run) *BlockProfile {
	bp := NewBlockProfile(prog)
	codeLen := uint32(len(prog.Code))

	// What one sample is "worth" in instructions, from the tool's point
	// of view: the period attached to the sample (perf records the
	// effective period per sample — essential in frequency mode, where it
	// changes over the run), converted from event units.
	instrPerEvent := 1.0
	if run.Method.Event == pmu.EvUopsRetired {
		instrPerEvent = 1.0 / 1.25
	}

	for i := range run.Samples {
		s := &run.Samples[i]
		weight := float64(s.Period) * instrPerEvent
		if s.Period == 0 {
			weight = float64(run.Period) * instrPerEvent
		}
		ip := s.IP
		if run.Method.Fix == sampling.FixLBRTop {
			ip = ApplyLBRTopFix(ip, s.LBR)
		}
		if ip >= codeLen {
			// IP+1 past the end of the code: clamp (a real tool would
			// drop the sample or attribute it to the last symbol).
			ip = codeLen - 1
		}
		b := prog.BlockOf[ip]
		bp.Samples[b]++
		bp.InstrEstimate[b] += weight
		bp.ExecEstimate[b] += weight / float64(prog.Blocks[b].Len())
		bp.TotalSamples++
	}
	return bp
}

// ApplyLBRTopFix undoes the precise-mechanism IP+1: the recorded IP is the
// next instruction *executed* after the trigger, so if it matches the most
// recent taken-branch target, the trigger was that branch's source;
// otherwise the trigger was the previous sequential instruction
// (Table 3, "precise event with distribution fix plus IP+1 offset fix").
func ApplyLBRTopFix(ip uint32, lbr []pmu.BranchRecord) uint32 {
	if len(lbr) > 0 {
		top := lbr[len(lbr)-1]
		if top.To == ip {
			return top.From
		}
	}
	if ip > 0 {
		return ip - 1
	}
	return ip
}

// FunctionProfile aggregates a block profile to function granularity.
type FunctionProfile struct {
	// Prog is the profiled program.
	Prog *program.Program
	// InstrEstimate[f] is the estimated instructions retired in function f.
	InstrEstimate []float64
}

// ToFunctions aggregates bp by owning function.
func (bp *BlockProfile) ToFunctions() *FunctionProfile {
	fp := &FunctionProfile{
		Prog:          bp.Prog,
		InstrEstimate: make([]float64, bp.Prog.NumFuncs()),
	}
	for b, v := range bp.InstrEstimate {
		fp.InstrEstimate[bp.Prog.Blocks[b].Func] += v
	}
	return fp
}

// Ranking returns function IDs sorted by descending estimated instruction
// count, ties broken by ID for determinism.
func (fp *FunctionProfile) Ranking() []int {
	ids := make([]int, len(fp.InstrEstimate))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		va, vb := fp.InstrEstimate[ids[a]], fp.InstrEstimate[ids[b]]
		if va != vb {
			return va > vb
		}
		return ids[a] < ids[b]
	})
	return ids
}
