package cpu_test

import (
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/program"
)

// stubMember is a broadcast member with a settable headroom answer that
// counts the calls it receives.
type stubMember struct {
	grant, deadline uint64
	branches        bool
	queries         int
	retires         int
	bulks           int    // BulkRetire calls
	bulk            uint64 // instructions they carried
	taken           int
}

func (s *stubMember) OnRetire(cpu.RetireEvent)            { s.retires++ }
func (s *stubMember) WantBranches() bool                  { return s.branches }
func (s *stubMember) OnFastBranch(uint32, uint32, isa.Op) { s.taken++ }

func (s *stubMember) BulkRetire(c cpu.BulkCounts) {
	s.bulks++
	s.bulk += c.Instrs
}

func (s *stubMember) FastHeadroom(uint64) (uint64, uint64) {
	s.queries++
	return s.grant, s.deadline
}

// TestBroadcastFansOut pins the broadcast's member-exact rules: a member
// is asked again only once its grant is spent or the horizon reaches its
// deadline, and the least grant and deadline win; a retirement reaches
// through OnRetire only the members whose grant is spent, and is folded
// into every other member's pending counts (plus OnFastBranch for a
// taken branch, if it wants branches); a stride is folded into every
// member; pending counts reach a member as one BulkRetire when it is
// asked again, or when RunFast returns.
func TestBroadcastFansOut(t *testing.T) {
	a := &stubMember{grant: 0, deadline: cpu.NoDeadline}
	b := &stubMember{grant: 50, deadline: 700, branches: true}
	c := &stubMember{grant: 20, deadline: cpu.NoDeadline}
	bc := cpu.NewBroadcast([]cpu.FastMonitor{a, b, c})
	stubs := []*stubMember{a, b, c}
	want := func(step string, queries, retires, bulks []int, bulk []uint64, taken []int) {
		t.Helper()
		for i, m := range stubs {
			if m.queries != queries[i] || m.retires != retires[i] || m.bulks != bulks[i] ||
				m.bulk != bulk[i] || m.taken != taken[i] {
				t.Errorf("%s: member %d: queries %d retires %d bulks %d (%d instrs) taken %d; want %d %d %d (%d) %d",
					step, i, m.queries, m.retires, m.bulks, m.bulk, m.taken,
					queries[i], retires[i], bulks[i], bulk[i], taken[i])
			}
		}
	}
	headroom := func(step string, horizon, grant, deadline uint64) {
		t.Helper()
		if g, d := bc.FastHeadroom(horizon); g != grant || d != deadline {
			t.Errorf("%s: headroom (%d, %d), want (%d, %d)", step, g, d, grant, deadline)
		}
	}

	if !bc.WantBranches() {
		t.Error("WantBranches false with a member that wants branches")
	}
	headroom("first ask", 10, 0, 700)
	want("first ask", []int{1, 1, 1}, []int{0, 0, 0}, []int{0, 0, 0}, []uint64{0, 0, 0}, []int{0, 0, 0})

	// A taken branch inside a stride reaches only the members that want
	// branches.
	bc.OnFastBranch(1, 2, isa.OpJmp)
	want("stride branch", []int{1, 1, 1}, []int{0, 0, 0}, []int{0, 0, 0}, []uint64{0, 0, 0}, []int{0, 1, 0})

	// Only the refusing member sees the taken branch retire; the others
	// fold it, and b, which wants branches, also gets it as a branch.
	bc.OnRetire(cpu.RetireEvent{Op: isa.OpJmp, Taken: true, Uops: 1})
	want("event", []int{1, 1, 1}, []int{1, 0, 0}, []int{0, 0, 0}, []uint64{0, 0, 0}, []int{0, 2, 0})

	// Only the spent member is asked again.
	a.grant = 100
	headroom("second ask", 20, 19, 700)
	want("second ask", []int{2, 1, 1}, []int{1, 0, 0}, []int{0, 0, 0}, []uint64{0, 0, 0}, []int{0, 2, 0})

	// A stride spends c's grant: c is asked again and first handed its
	// folded retirement and the stride as one BulkRetire.
	bc.BulkRetire(cpu.BulkCounts{Instrs: 19})
	headroom("c spent", 30, 20, 700)
	want("c spent", []int{2, 1, 2}, []int{1, 0, 0}, []int{0, 0, 1}, []uint64{0, 0, 20}, []int{0, 2, 0})

	// A horizon at b's deadline asks b again, inside its grant.
	b.deadline = 1400
	headroom("b's deadline", 700, 20, 1400)
	want("b's deadline", []int{2, 2, 2}, []int{1, 0, 0}, []int{0, 1, 1}, []uint64{0, 20, 20}, []int{0, 2, 0})

	// Run end: RunFast flushes every member's pending counts, each as one
	// stride of the whole run, since no member's grant ran out.
	bld := program.NewBuilder("straight")
	main := bld.Func("main")
	main.Block("entry").Movi(1, 0).Addi(1, 1, 1).Addi(1, 1, 2).Movi(2, 7).Halt()
	p, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := &stubMember{grant: 1 << 40, deadline: cpu.NoDeadline}
	y := &stubMember{grant: 1 << 30, deadline: cpu.NoDeadline}
	res, err := cpu.RunFast(p, cpu.DefaultConfig(), cpu.NewBroadcast([]cpu.FastMonitor{x, y}), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []*stubMember{x, y} {
		if m.queries != 1 || m.retires != 0 || m.bulks != 1 || m.bulk != res.Instructions {
			t.Errorf("run end: member %d: queries %d retires %d bulks %d (%d instrs); want 1 0 1 (%d)",
				i, m.queries, m.retires, m.bulks, m.bulk, res.Instructions)
		}
	}
}
