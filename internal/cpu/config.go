// Package cpu implements the deterministic processor simulator that
// replaces the paper's physical machines (AMD Magny-Cours, Intel Westmere,
// Intel Ivy Bridge).
//
// The simulator combines exact functional execution with a retirement-
// timing model. Functional execution provides ground truth (the role Pin
// plays in the paper); the timing model produces the retirement-stream
// phenomena that make event-based sampling inaccurate:
//
//   - long-latency instructions stall in-order retirement (the "shadow"
//     effect of Chen et al. §3.1);
//   - stalled instructions then retire in RetireWidth-wide bursts (the
//     "out-of-order clustering of uops ... retired in bursts" the paper
//     blames for CallChain behaviour, §5.1);
//   - interrupt delivery latency detaches the sampled IP from the
//     triggering instruction (the "skid" effect);
//   - branch mispredictions and taken-branch fetch bubbles spread work
//     unevenly over cycles.
//
// The model is not cycle-accurate against any real core, and does not need
// to be: the paper's claims are about *relative* accuracy of sampling
// methods, which depends only on these qualitative retirement behaviours.
package cpu

import "pmutrust/internal/isa"

// Config describes one simulated core. Machine presets live in
// internal/machine; this package only interprets the numbers.
type Config struct {
	// DispatchWidth is the number of instructions the front end can
	// deliver per cycle.
	DispatchWidth int
	// RetireWidth is the number of instructions that can retire per
	// cycle. This is the knob behind retirement bursts: after a stall,
	// up to RetireWidth instructions leave in one cycle.
	RetireWidth int
	// MispredictPenalty is the fetch-redirect cost in cycles of a
	// mispredicted conditional branch.
	MispredictPenalty uint64
	// TakenBranchBubble is the front-end bubble in cycles after any
	// correctly-predicted taken control transfer.
	TakenBranchBubble uint64
	// PredictorBits is the log2 size of the 2-bit direction predictor
	// table. Zero selects the default (12: 4096 entries).
	PredictorBits int
	// MaxCallDepth bounds the simulated call stack; exceeding it is a
	// workload bug reported as an error. Zero selects the default (1024).
	MaxCallDepth int
}

// DefaultConfig returns a generic 4-wide out-of-order core configuration.
func DefaultConfig() Config {
	return Config{
		DispatchWidth:     4,
		RetireWidth:       4,
		MispredictPenalty: 14,
		TakenBranchBubble: 1,
		PredictorBits:     12,
		MaxCallDepth:      1024,
	}
}

// MaxRetireCyclesPerInstr returns a proven upper bound on how far the
// retirement clock can advance per retired instruction under this
// configuration. Derivation (both engines share the timing model): the
// next instruction's dispatch cycle is at most the previous retirement
// cycle plus max(MispredictPenalty, TakenBranchBubble+1) (a redirect is
// the only way dispatch jumps ahead, and every redirect source — a
// mispredict resolving at a completion cycle, or a taken-branch bubble —
// is bounded by an already-retired instruction's cycle); operand-ready
// times are completion cycles of retired producers, so they cannot push
// past that; execution adds at most isa.MaxLatency; and the retire-width
// rule adds at most one more cycle. The stride loop's deadline fence
// ends a stride two of these bounds before a monitor's deadline (one
// iteration can retire a fused pair), so no strided retirement reaches
// it; one extra cycle of slack is included so the bound stays safe under
// small timing-model edits.
func (c Config) MaxRetireCyclesPerInstr() uint64 {
	c = c.withDefaults()
	worst := c.MispredictPenalty
	if b := c.TakenBranchBubble + 1; b > worst {
		worst = b
	}
	return uint64(isa.MaxLatency) + worst + 2
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DispatchWidth <= 0 {
		c.DispatchWidth = d.DispatchWidth
	}
	if c.RetireWidth <= 0 {
		c.RetireWidth = d.RetireWidth
	}
	if c.PredictorBits <= 0 {
		c.PredictorBits = d.PredictorBits
	}
	if c.MaxCallDepth <= 0 {
		c.MaxCallDepth = d.MaxCallDepth
	}
	return c
}
