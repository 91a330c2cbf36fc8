package main

import (
	"strings"
	"testing"
)

// The CLI's run function is exercised directly (stdout noise is fine in
// tests); this pins the end-to-end path behind the binary.
func TestRunEndToEnd(t *testing.T) {
	if err := run("G4Box", "IvyBridge", 0.05, 1000, 1, 42, true); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", "IvyBridge", 0.05, 1000, 1, 42, false); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run("G4Box", "Pentium", 0.05, 1000, 1, 42, false); err == nil {
		t.Error("unknown machine accepted")
	}
	// Machines without LBR cannot run the lbr method.
	if err := run("G4Box", "MagnyCours", 0.05, 1000, 1, 42, false); err == nil {
		t.Error("LBR dump on MagnyCours accepted")
	}
	if err := run("G4Box", "IvyBridge", 0, 1000, 1, 42, false); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("zero scale: err = %v, want a scale error", err)
	}
}
