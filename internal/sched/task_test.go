package sched

import (
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/isa"
	"pmutrust/internal/telemetry"
)

// stubChain stands in for a tenant's wrapped monitor chain: a fixed
// headroom answer, and a count of how often it was asked.
type stubChain struct {
	grant, deadline uint64
	queries         int
}

func (s *stubChain) OnRetire(cpu.RetireEvent)            {}
func (s *stubChain) WantBranches() bool                  { return false }
func (s *stubChain) OnFastBranch(uint32, uint32, isa.Op) {}
func (s *stubChain) BulkRetire(cpu.BulkCounts)           {}

func (s *stubChain) FastHeadroom(uint64) (uint64, uint64) {
	s.queries++
	return s.grant, s.deadline
}

// TestTaskHeadroom pins the scheduler's half of the deadline contract:
// short of the deadline the task passes the chain's grant through with
// the lesser of the two deadlines; a horizon at the deadline is refused
// with exactly one sched_deadline fallback and without asking the chain;
// a chain refusal is the chain's to count.
func TestTaskHeadroom(t *testing.T) {
	for _, tc := range []struct {
		name                string
		chainGrant, chainDL uint64
		wantDL              uint64
	}{
		{"task-deadline-first", 50, cpu.NoDeadline, 1000},
		{"chain-deadline-first", 50, 700, 700},
		{"chain-refuses", 0, cpu.NoDeadline, 1000},
	} {
		chain := &stubChain{grant: tc.chainGrant, deadline: tc.chainDL}
		tk := &task{mon: chain, nextDeadline: 1000, tele: &telemetry.EngineCounters{}}
		if g, d := tk.FastHeadroom(999); g != tc.chainGrant || d != tc.wantDL {
			t.Errorf("%s: grant %d, deadline %d; want %d, %d", tc.name, g, d, tc.chainGrant, tc.wantDL)
		}
		if n := tk.tele.Fallbacks[telemetry.FallbackSchedDeadline]; n != 0 {
			t.Errorf("%s: %d sched_deadline fallbacks short of the deadline", tc.name, n)
		}
		if chain.queries != 1 {
			t.Errorf("%s: chain asked %d times, want 1", tc.name, chain.queries)
		}
	}

	chain := &stubChain{grant: 50, deadline: cpu.NoDeadline}
	tk := &task{mon: chain, nextDeadline: 1000, tele: &telemetry.EngineCounters{}}
	if g, _ := tk.FastHeadroom(1000); g != 0 {
		t.Fatalf("horizon at the deadline: grant %d, want 0", g)
	}
	if chain.queries != 0 {
		t.Errorf("a refusal asked the chain %d times", chain.queries)
	}
	for r, n := range tk.tele.Fallbacks {
		want := uint64(0)
		if telemetry.FallbackReason(r) == telemetry.FallbackSchedDeadline {
			want = 1
		}
		if n != want {
			t.Errorf("refusal: %s fallbacks = %d, want %d", telemetry.FallbackReason(r), n, want)
		}
	}
}
