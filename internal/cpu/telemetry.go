package cpu

import (
	"pmutrust/internal/isa"
	"pmutrust/internal/telemetry"
)

// EngineObserver is the optional monitor refinement the telemetry layer
// rides on: a monitor that implements it exposes a per-run counter block
// the engines and the monitor chain record into. The PMU owns the block;
// wrapping monitors (the mux, a scheduler task) share the inner unit's
// pointer so one chain publishes exactly one set of counters. The engines
// consult the interface once at setup — never inside a stride — so a
// monitor without it (or a nil sink downstream) costs nothing.
type EngineObserver interface {
	EngineCounters() *telemetry.EngineCounters
}

// recordFused credits the predecoded program's superinstruction fusions
// to an observing monitor's counter block: a per-run static count,
// recorded once at decode time (the stride loops never touch it), and
// once per member of a Broadcast, as each member's own run would.
func recordFused(fm FastMonitor, code []fastInstr) {
	if b, ok := fm.(*Broadcast); ok {
		for _, m := range b.members {
			recordFused(m.mon, code)
		}
		return
	}
	o, ok := fm.(EngineObserver)
	if !ok {
		return
	}
	c := o.EngineCounters()
	if c == nil {
		return
	}
	var fused uint64
	for i := range code {
		if code[i].op >= isa.Op(isa.NumOps) {
			fused++
		}
	}
	c.FusedPairs += fused
}
