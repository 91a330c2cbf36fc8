package main

import (
	"strings"
	"testing"

	"pmutrust/internal/machine"
)

// TestRunEndToEnd pins the path behind the binary: one assessment table
// per machine under -all-machines, each ending in a recommendation.
func TestRunEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "Test40", "IvyBridge", 0.05, 1000, 42, 1, true); err != nil {
		t.Fatalf("run: %v", err)
	}
	tables := strings.Split(strings.TrimSpace(out.String()), "\n\n")
	if len(tables) != len(machine.All()) {
		t.Fatalf("got %d tables, want one per machine (%d):\n%s", len(tables), len(machine.All()), out.String())
	}
	for i, m := range machine.All() {
		if head := "trust assessment: Test40 on " + m.Name; !strings.HasPrefix(tables[i], head) {
			t.Errorf("table %d does not start with %q:\n%s", i, head, tables[i])
		}
		if !strings.Contains(tables[i], "*") {
			t.Errorf("table %d marks no recommended method:\n%s", i, tables[i])
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "nope", "IvyBridge", 0.05, 1000, 42, 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(&out, "Test40", "Pentium", 0.05, 1000, 42, 1, false); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := run(&out, "Test40", "IvyBridge", 0.05, 0, 42, 1, false); err == nil || !strings.Contains(err.Error(), "zero period") {
		t.Errorf("zero period: err = %v, want a zero-period error", err)
	}
	if err := run(&out, "Test40", "IvyBridge", 0, 1000, 42, 1, false); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("zero scale: err = %v, want a scale error", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed runs wrote output:\n%s", out.String())
	}
}
