package cpu

import "pmutrust/internal/isa"

// Broadcast shares one execution among member monitors, each observing
// it exactly as it would a run of its own, since no monitor feeds back
// into execution. FastHeadroom asks every member (each counts its own
// refusals) and returns the least grant and deadline: a smaller grant or
// an earlier deadline only ends strides sooner, and OnRetire is exact for
// any monitor at any retirement. Taken branches go to the members that
// want them, everything else to every member.
type Broadcast struct {
	members, branches []FastMonitor
}

// NewBroadcast returns a Broadcast over members, which must be non-empty.
func NewBroadcast(members []FastMonitor) *Broadcast {
	b := &Broadcast{members: members}
	for _, m := range members {
		if m.WantBranches() {
			b.branches = append(b.branches, m)
		}
	}
	return b
}

// OnRetire implements Monitor.
func (b *Broadcast) OnRetire(ev RetireEvent) {
	for _, m := range b.members {
		m.OnRetire(ev)
	}
}

// FastHeadroom implements FastMonitor.
func (b *Broadcast) FastHeadroom(horizon uint64) (grant, deadline uint64) {
	grant, deadline = b.members[0].FastHeadroom(horizon)
	for _, m := range b.members[1:] {
		g, d := m.FastHeadroom(horizon)
		grant, deadline = min(grant, g), min(deadline, d)
	}
	return grant, deadline
}

// WantBranches implements FastMonitor.
func (b *Broadcast) WantBranches() bool { return len(b.branches) > 0 }

// OnFastBranch implements FastMonitor.
func (b *Broadcast) OnFastBranch(from, to uint32, op isa.Op) {
	for _, m := range b.branches {
		m.OnFastBranch(from, to, op)
	}
}

// BulkRetire implements FastMonitor.
func (b *Broadcast) BulkRetire(c BulkCounts) {
	for _, m := range b.members {
		m.BulkRetire(c)
	}
}
