package cpu_test

import (
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
)

// stubMember is a broadcast member with a fixed headroom answer that
// counts the calls it receives.
type stubMember struct {
	grant, deadline uint64
	branches        bool
	queries         int
	retires         int
	bulk            uint64
	taken           int
}

func (s *stubMember) OnRetire(cpu.RetireEvent)            { s.retires++ }
func (s *stubMember) WantBranches() bool                  { return s.branches }
func (s *stubMember) OnFastBranch(uint32, uint32, isa.Op) { s.taken++ }
func (s *stubMember) BulkRetire(c cpu.BulkCounts)         { s.bulk += c.Instrs }

func (s *stubMember) FastHeadroom(uint64) (uint64, uint64) {
	s.queries++
	return s.grant, s.deadline
}

// TestBroadcastFansOut pins the broadcast's rules: every member is asked
// for headroom (even after one refuses, so each counts its own
// refusals) and the least grant and deadline win; retirements and
// strides reach every member, and taken branches only the members that
// want them.
func TestBroadcastFansOut(t *testing.T) {
	a := &stubMember{grant: 0, deadline: cpu.NoDeadline}
	b := &stubMember{grant: 50, deadline: 700, branches: true}
	c := &stubMember{grant: 20, deadline: cpu.NoDeadline}
	bc := cpu.NewBroadcast([]cpu.FastMonitor{a, b, c})
	if g, d := bc.FastHeadroom(10); g != 0 || d != 700 {
		t.Errorf("headroom (%d, %d), want (0, 700)", g, d)
	}
	if g, d := cpu.NewBroadcast([]cpu.FastMonitor{b, c}).FastHeadroom(10); g != 20 || d != 700 {
		t.Errorf("headroom without the refusal (%d, %d), want (20, 700)", g, d)
	}
	if a.queries != 1 || b.queries != 2 || c.queries != 2 {
		t.Errorf("queries %d/%d/%d, want every member asked every time", a.queries, b.queries, c.queries)
	}
	if !bc.WantBranches() {
		t.Error("WantBranches false with a member that wants branches")
	}
	bc.OnFastBranch(1, 2, isa.OpJmp)
	bc.OnRetire(cpu.RetireEvent{})
	bc.BulkRetire(cpu.BulkCounts{Instrs: 7})
	for i, m := range []*stubMember{a, b, c} {
		if m.retires != 1 || m.bulk != 7 {
			t.Errorf("member %d: %d retires, %d bulk instructions; want 1, 7", i, m.retires, m.bulk)
		}
		want := 0
		if m.branches {
			want = 1
		}
		if m.taken != want {
			t.Errorf("member %d (wants branches %v): %d branches, want %d", i, m.branches, m.taken, want)
		}
	}

}
