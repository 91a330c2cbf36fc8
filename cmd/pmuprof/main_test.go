package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// TestRunAllMethods runs each method through the binary's path and pins
// "one cell, one number": the accuracy error pmuprof prints is the one
// Runner.Measure gives the same (workload, machine, method) cell at the
// same scale, period and seed with one repeat, as the small-scale tables
// measure it.
func TestRunAllMethods(t *testing.T) {
	const scale, period, seed = 0.05, 1000, 42
	spec, err := workloads.ByName("Test40")
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(experiments.Scale{Workload: scale, PeriodBase: period, Repeats: 1}, seed)
	for _, key := range []string{"classic", "precise", "pdir+ipfix", "lbr"} {
		var out strings.Builder
		if err := run(&out, "Test40", "IvyBridge", key, scale, period, seed, 5, true, 8); err != nil {
			t.Errorf("run(%s): %v", key, err)
			continue
		}
		method, err := sampling.MethodByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Measure(spec, machine.IvyBridge(), method)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("accuracy error: %.4f ", m.Err); !strings.Contains(out.String(), want) {
			t.Errorf("%s: output lacks the grid's %q:\n%s", key, want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "nope", "IvyBridge", "classic", 0.05, 1000, 42, 5, false, 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(io.Discard, "Test40", "P4", "classic", 0.05, 1000, 42, 5, false, 0); err == nil {
		t.Error("unknown machine accepted")
	}
	if err := run(io.Discard, "Test40", "IvyBridge", "magic", 0.05, 1000, 42, 5, false, 0); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run(io.Discard, "Test40", "MagnyCours", "lbr", 0.05, 1000, 42, 5, false, 0); err == nil {
		t.Error("lbr on MagnyCours accepted")
	}
	if err := run(io.Discard, "Test40", "IvyBridge", "classic", 0, 1000, 42, 5, false, 0); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("zero scale: err = %v, want a scale error", err)
	}
}

// TestNegativeTopExits2 runs main in a child process (this test binary,
// re-entered with PMUPROF_MAIN set) with -top -1: it must exit 2 with a
// usage message before anything is profiled.
func TestNegativeTopExits2(t *testing.T) {
	if os.Getenv("PMUPROF_MAIN") == "1" {
		os.Args = []string{"pmuprof", "-workload", "Test40", "-scale", "0.05", "-top", "-1"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeTopExits2$")
	cmd.Env = append(os.Environ(), "PMUPROF_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("pmuprof -top -1: err = %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-top must not be negative") || strings.Contains(string(out), "accuracy error") {
		t.Errorf("pmuprof -top -1 did not stop at the flag check:\n%s", out)
	}
}
