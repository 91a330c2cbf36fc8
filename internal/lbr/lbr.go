// Package lbr implements Last-Branch-Record analysis: reconstructing basic
// block execution counts from sampled LBR stacks (§3.2 of the paper).
//
// An LBR stack is a window of the most recent taken branches, as
// source/target pairs <S_i, T_i>. Between a target T_i and the next source
// S_{i+1} the processor executed a straight-line run of code with no taken
// branches, so every basic block in [T_i, S_{i+1}] executed exactly once.
// Walking all consecutive pairs of every collected stack yields block
// execution counts; scaling by the sampling period over the window length
// makes the counts an estimate of the whole run (each PMI stands for
// Period taken branches, of which the stack exposes entries−1 segments).
package lbr

import (
	"fmt"

	"pmutrust/internal/pmu"
	"pmutrust/internal/profile"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
)

// DecodeStats reports LBR decoding health; tests and the lbrdump tool use
// it to verify the decoder against ground truth.
type DecodeStats struct {
	// Stacks is the number of stacks decoded.
	Stacks int
	// Segments is the number of straight-line segments walked.
	Segments int
	// Blocks is the total number of block executions observed (before
	// scaling).
	Blocks int
	// Malformed counts segments whose target/source pair did not map to a
	// valid straight-line run (should be zero in this simulator; real
	// hardware produces these on e.g. context switches).
	Malformed int
}

// BuildProfile reconstructs a basic-block profile from the LBR stacks of
// run. The run must have been collected with a method that captures LBR
// stacks on a taken-branches event (sampling.Registry's "lbr" method).
func BuildProfile(prog *program.Program, run *sampling.Run) (*profile.BlockProfile, DecodeStats, error) {
	if !run.Method.UseLBRStack {
		return nil, DecodeStats{}, fmt.Errorf("lbr: method %s does not collect LBR stacks", run.Method.Key)
	}
	bp := profile.NewBlockProfile(prog)
	var ds DecodeStats
	for i := range run.Samples {
		s := &run.Samples[i]
		if len(s.LBR) < 2 {
			continue
		}
		ds.Stacks++
		// Each stack stands for Period taken-branch events; it exposes
		// len(LBR)-1 inter-branch segments. Every block observed in the
		// window therefore represents Period/(len-1) executions.
		scale := float64(run.Period) / float64(len(s.LBR)-1)
		walkStack(prog, s.LBR, &ds, func(blockID int) {
			bp.ExecEstimate[blockID] += scale
			bp.InstrEstimate[blockID] += scale * float64(prog.Blocks[blockID].Len())
			ds.Blocks++
		})
		bp.Samples[prog.BlockOf[s.LBR[len(s.LBR)-1].From]]++
		bp.TotalSamples++
	}
	return bp, ds, nil
}

// Profile estimates run's basic-block profile the way a tool using its
// method would: LBR-stack decoding for a method that captures LBR stacks,
// plain sample attribution (with the method's optional IP+1 fix)
// otherwise. The DecodeStats are zero for sampled methods.
func Profile(prog *program.Program, run *sampling.Run) (*profile.BlockProfile, DecodeStats, error) {
	if run.Method.UseLBRStack {
		return BuildProfile(prog, run)
	}
	return profile.FromSamples(prog, run), DecodeStats{}, nil
}

// walkStack visits every basic block executed within the stack's
// straight-line segments, invoking visit once per block execution.
//
// For each consecutive pair of records (r_i, r_{i+1}), control flowed from
// r_i.To through sequential code to r_{i+1}.From (which is the next taken
// branch). Both endpoints are included. The branch record r_i itself also
// proves the *source block* of r_i executed, but that block is already
// covered as the endpoint of the previous segment; only the oldest
// record's source block would be missed, and it is excluded deliberately —
// the window's leading edge is truncated on real hardware too.
func walkStack(prog *program.Program, stack []pmu.BranchRecord, ds *DecodeStats, visit func(int)) {
	for i := 0; i+1 < len(stack); i++ {
		from := stack[i].To
		to := stack[i+1].From
		if from > to || int(to) >= len(prog.Code) {
			// A segment that runs "backwards" cannot be a straight-line
			// run; real tools drop these (interrupted stacks).
			ds.Malformed++
			continue
		}
		first := int(prog.BlockOf[from])
		last := int(prog.BlockOf[to])
		// The segment must begin at a block boundary: branch targets are
		// block starts by construction. The end is the *source* of the
		// next branch: the branch is the last instruction of its block,
		// so the final block is fully covered as well.
		ds.Segments++
		for b := first; b <= last; b++ {
			visit(b)
		}
	}
}

// SegmentLengths returns the distribution of straight-line segment lengths
// (in instructions) across all stacks of a run: the "effective number of
// instructions that the sample corresponds to" (§5.1, testG4Box
// discussion). Used by lbrdump and the ablation benches.
func SegmentLengths(prog *program.Program, run *sampling.Run) []int {
	var out []int
	for i := range run.Samples {
		s := &run.Samples[i]
		for j := 0; j+1 < len(s.LBR); j++ {
			from := s.LBR[j].To
			to := s.LBR[j+1].From
			if from > to || int(to) >= len(prog.Code) {
				continue
			}
			out = append(out, int(to-from)+1)
		}
	}
	return out
}
