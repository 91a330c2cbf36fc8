package core

import (
	"reflect"
	"strings"
	"testing"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

func TestAssessIvyBridge(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.2)
	a, err := Assess(p, machine.IvyBridge(), Options{PeriodBase: 1000, Seed: 3, Repeats: 1})
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	if len(a.Results) != 7 {
		t.Fatalf("results = %d", len(a.Results))
	}
	for _, mr := range a.Results {
		if !mr.Supported {
			t.Errorf("%s unsupported on IvyBridge", mr.Method)
		}
		if mr.Err < 0 || mr.Err > 2 {
			t.Errorf("%s err out of range: %v", mr.Method, mr.Err)
		}
	}
	// The best method on IVB must be one of the advanced ones.
	if a.Best.Method == "classic" {
		t.Error("classic assessed as best on IvyBridge")
	}
	if a.DefaultPenalty <= 1 {
		t.Errorf("default penalty %.2f <= 1", a.DefaultPenalty)
	}
	if !strings.Contains(a.Recommendation, "PDIR") {
		t.Errorf("IVB recommendation does not mention PDIR: %s", a.Recommendation)
	}
	if !strings.Contains(a.Table(), "err") {
		t.Error("table rendering empty")
	}
}

func TestAssessMagnyCours(t *testing.T) {
	p := workloads.MustBuild("Test40", 0.2)
	a, err := Assess(p, machine.MagnyCours(), Options{PeriodBase: 1000, Seed: 3, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	unsupported := 0
	for _, mr := range a.Results {
		if !mr.Supported {
			unsupported++
			if mr.Err != -1 {
				t.Error("unsupported method carries an error value")
			}
		}
	}
	// pdir+ipfix and lbr need LBR: both unsupported on AMD.
	if unsupported != 2 {
		t.Errorf("unsupported methods = %d, want 2", unsupported)
	}
	if !strings.Contains(a.Recommendation, "IBS") {
		t.Errorf("AMD recommendation does not mention IBS: %s", a.Recommendation)
	}
	if !strings.Contains(a.Table(), "unsupported") {
		t.Error("table does not mark unsupported methods")
	}
}

func TestAssessWestmereMentionsLBR(t *testing.T) {
	p := workloads.MustBuild("CallChain", 0.2)
	a, err := Assess(p, machine.Westmere(), Options{PeriodBase: 1000, Seed: 3, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Recommendation, "LBR") {
		t.Errorf("Westmere recommendation does not mention LBR: %s", a.Recommendation)
	}
}

func TestAssessValidation(t *testing.T) {
	p := workloads.MustBuild("G4Box", 0.05)
	if _, err := Assess(p, machine.IvyBridge(), Options{}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestAssessRepeatsDefault(t *testing.T) {
	p := workloads.MustBuild("LatencyBiased", 0.05)
	a, err := Assess(p, machine.IvyBridge(), Options{PeriodBase: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Samples == 0 {
		t.Error("no samples recorded")
	}
}

// TestAssessIsTheGridRow pins "one cell, one number": assessing a
// registered workload yields, method by method, the measurements of the
// one-row accuracy grid at the same scale, period, seed and repeats.
func TestAssessIsTheGridRow(t *testing.T) {
	const scale, period, seed, repeats = 0.05, 1000, 5, 2
	spec, err := workloads.ByName("G4Box")
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.Westmere()
	a, err := Assess(spec.Build(scale), mach, Options{PeriodBase: period, Seed: seed, Repeats: repeats})
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Scale{Workload: scale, PeriodBase: period, Repeats: repeats}, seed)
	want, err := r.Sweep(experiments.Grid{
		Workloads: []workloads.Spec{spec},
		Machines:  []machine.Machine{mach},
		Methods:   sampling.Registry(),
	}, experiments.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Results, want) {
		t.Errorf("Assess results differ from the grid row:\n got %+v\nwant %+v", a.Results, want)
	}
}
