package cpu

import "pmutrust/internal/isa"

// Broadcast shares one execution among member monitors, each observing
// it exactly as in a run of its own, since no monitor feeds back into
// execution. It is member-exact: each member is asked for headroom,
// handed strides and handed retirements exactly as alone.
//
//   - FastHeadroom asks a member again only once its grant is spent or
//     the horizon reaches its deadline, flushing its pending counts
//     first, and returns the least remaining grant and the least
//     deadline.
//   - BulkRetire folds the stride into every member's pending counts and
//     spends its instructions from every grant.
//   - OnRetire goes to the members whose grant is spent; every other
//     member folds the retirement into its pending counts, spends one
//     instruction of its grant and, if it wants branches, gets a taken
//     branch through OnFastBranch. The interpreter never asks for
//     headroom, so under it every member gets every OnRetire.
//   - RunFast flushes the pending counts before it returns.
//
// A member without a cycle deadline (a PMU) is therefore asked at the
// same retirements as alone, and each of its solo strides reaches it as
// one BulkRetire with the same counts: its samples and its engine
// counters both equal its solo run's. A member with deadlines (a mux, a
// scheduler task) keeps exact samples and counts, since its deadline
// retirement always reaches it through OnRetire, but it may be asked
// again one retirement sooner than alone: alone, the stride loop checks
// the fence once per fused pair, while a pair that another member's
// grant splits, or that runs in event mode for another member, is
// checked between its halves. Its stride and fallback telemetry can
// therefore move by one instruction per such pair.
type Broadcast struct {
	members  []member
	branches []FastMonitor // the members that want taken branches
}

// member is one Broadcast member and what it was granted.
type member struct {
	mon FastMonitor
	// grant is what is left of the member's last grant, deadline that
	// grant's deadline; a spent grant (0) means the member must be asked
	// again before the next retirement.
	grant, deadline uint64
	// pending is what the member retired inside its grant and has not
	// yet been handed.
	pending  BulkCounts
	branches bool
}

// NewBroadcast returns a Broadcast over members, which must be non-empty.
func NewBroadcast(members []FastMonitor) *Broadcast {
	b := &Broadcast{members: make([]member, len(members))}
	for i, m := range members {
		b.members[i] = member{mon: m, branches: m.WantBranches()}
		if b.members[i].branches {
			b.branches = append(b.branches, m)
		}
	}
	return b
}

// flush hands the member its pending counts as one stride.
func (m *member) flush() {
	if m.pending.Instrs > 0 {
		m.mon.BulkRetire(m.pending)
		m.pending = BulkCounts{}
	}
}

// flush hands every member its pending counts; RunFast calls it before
// it returns.
func (b *Broadcast) flush() {
	for i := range b.members {
		b.members[i].flush()
	}
}

// OnRetire implements Monitor.
func (b *Broadcast) OnRetire(ev RetireEvent) {
	for i := range b.members {
		m := &b.members[i]
		if m.grant == 0 {
			m.mon.OnRetire(ev)
			continue
		}
		m.pending.add(CountsOf(ev))
		m.grant--
		if ev.Taken && m.branches {
			m.mon.OnFastBranch(ev.Idx, ev.Target, ev.Op)
		}
	}
}

// FastHeadroom implements FastMonitor.
func (b *Broadcast) FastHeadroom(horizon uint64) (grant, deadline uint64) {
	grant, deadline = ^uint64(0), NoDeadline
	for i := range b.members {
		m := &b.members[i]
		if m.grant == 0 || horizon >= m.deadline {
			m.flush()
			m.grant, m.deadline = m.mon.FastHeadroom(horizon)
		}
		grant, deadline = min(grant, m.grant), min(deadline, m.deadline)
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
	for i := range b.members {
		m := &b.members[i]
		m.pending.add(c)
		m.grant -= c.Instrs
	}
}
