// Package trace provides a bounded retirement-stream tracer: a ring
// buffer of the most recent retirement events, with symbolized text
// rendering. The experiment harness never needs it (profiles are built
// from PMU samples), but the debugging tools do — pmuprof can dump the
// instructions surrounding a sample to show *why* a method misattributed
// it, which is how the skid/shadow/burst effects in this repository were
// validated by eye against §3.1 of the paper.
package trace

import (
	"fmt"
	"strings"

	"pmutrust/internal/cpu"
	"pmutrust/internal/program"
)

// Tracer is a cpu.Monitor recording the last N retirement events.
// A Tracer can wrap another monitor (e.g. the PMU) so that tracing and
// sampling observe the identical stream.
type Tracer struct {
	ring  []cpu.RetireEvent
	pos   int
	count uint64
	next  cpu.Monitor
}

// New creates a tracer keeping the last depth events, forwarding each
// event to next (which may be nil).
func New(depth int, next cpu.Monitor) *Tracer {
	if depth <= 0 {
		depth = 64
	}
	return &Tracer{ring: make([]cpu.RetireEvent, depth), next: next}
}

// OnRetire implements cpu.Monitor.
func (t *Tracer) OnRetire(ev cpu.RetireEvent) {
	t.ring[t.pos] = ev
	t.pos = (t.pos + 1) % len(t.ring)
	t.count++
	if t.next != nil {
		t.next.OnRetire(ev)
	}
}

// Count returns the total number of events observed.
func (t *Tracer) Count() uint64 { return t.count }

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []cpu.RetireEvent {
	n := len(t.ring)
	if t.count < uint64(n) {
		n = int(t.count)
	}
	out := make([]cpu.RetireEvent, n)
	start := t.pos - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// Format renders the retained events as a symbolized listing: sequence
// number, cycle, address, block, disassembly, and retirement-burst
// markers (a "│" connects events that retired in the same cycle, making
// the burst structure §5.1 blames for PEBS bias directly visible).
func (t *Tracer) Format(p *program.Program) string {
	var b strings.Builder
	events := t.Events()
	for i, ev := range events {
		burst := " "
		if i > 0 && events[i-1].Cycle == ev.Cycle {
			burst = "│"
		}
		blk := p.Blocks[p.BlockOf[ev.Idx]]
		taken := ""
		if ev.Taken {
			tb := p.Blocks[p.BlockOf[ev.Target]]
			taken = fmt.Sprintf("  -> %s", tb.FullName(p))
		}
		fmt.Fprintf(&b, "%10d  cyc %-10d %s %#08x  %-22s %s%s\n",
			ev.Seq, ev.Cycle, burst,
			program.DisplayAddr(int(ev.Idx)), blk.FullName(p),
			p.Code[ev.Idx].Disasm(), taken)
	}
	return b.String()
}
