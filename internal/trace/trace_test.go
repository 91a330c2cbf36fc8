package trace

import (
	"strings"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/workloads"
)

func TestRingRetention(t *testing.T) {
	tr := New(4, nil)
	for i := 0; i < 10; i++ {
		tr.OnRetire(cpu.RetireEvent{Seq: uint64(i + 1), Cycle: uint64(i)})
	}
	if tr.Count() != 10 {
		t.Errorf("count = %d", tr.Count())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained = %d", len(ev))
	}
	if ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Errorf("retention window wrong: %v..%v", ev[0].Seq, ev[3].Seq)
	}
}

func TestPartialFill(t *testing.T) {
	tr := New(8, nil)
	tr.OnRetire(cpu.RetireEvent{Seq: 1})
	tr.OnRetire(cpu.RetireEvent{Seq: 2})
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Seq != 1 {
		t.Errorf("partial fill: %v", ev)
	}
}

func TestForwarding(t *testing.T) {
	var got []uint64
	sink := monitorFunc(func(ev cpu.RetireEvent) { got = append(got, ev.Seq) })
	tr := New(2, sink)
	for i := 0; i < 5; i++ {
		tr.OnRetire(cpu.RetireEvent{Seq: uint64(i + 1)})
	}
	if len(got) != 5 {
		t.Errorf("forwarded %d of 5", len(got))
	}
}

type monitorFunc func(cpu.RetireEvent)

func (f monitorFunc) OnRetire(ev cpu.RetireEvent) { f(ev) }

func TestDefaultDepth(t *testing.T) {
	tr := New(0, nil)
	if len(tr.ring) != 64 {
		t.Errorf("default depth = %d", len(tr.ring))
	}
}

func TestFormatAgainstRealRun(t *testing.T) {
	p := workloads.MustBuild("LatencyBiased", 0.001)
	tr := New(32, nil)
	if _, err := cpu.Run(p, cpu.DefaultConfig(), tr, 0); err != nil {
		t.Fatal(err)
	}
	out := tr.Format(p)
	if !strings.Contains(out, "main.") {
		t.Errorf("format lacks symbolization:\n%s", out)
	}
	if !strings.Contains(out, "halt") {
		t.Errorf("last events must include the halt:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 32 {
		t.Errorf("formatted lines = %d, want 32", lines)
	}
}
