// Paper-scale sweep determinism: the acceptance bar for the parallel
// runner. A PaperScale() grid over three kernels × all three machines ×
// every Table 3 method must aggregate to byte-identical results at
// worker counts 1 and 8, and to the pinned bytes: it is the only test
// that gates the Repeats > 1 aggregation. This lives in the root package
// so the long paper-scale run gets its own test-binary time budget;
// -short skips it (the small-scale equivalent in internal/experiments
// always runs).
package pmutrust_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pmutrust/internal/experiments"
	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
	"pmutrust/internal/workloads"
)

// paperScaleSHA256 is the sha256 of the 1-worker sweep's json.Marshal
// output (12,062 bytes). A change that alters what a cell measures on
// purpose updates it together with the golden files.
const paperScaleSHA256 = "d66f0c935f758187540508c3271117e51b9f415c9064cb21216349f2daf7ea16"

func TestPaperScaleSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweeps take minutes")
	}
	g := experiments.Grid{
		Workloads: workloads.Kernels()[:3],
		Machines:  machine.All(),
		Methods:   sampling.Registry(),
	}
	var got [][]byte
	for _, workers := range []int{1, 8} {
		r := experiments.NewRunner(experiments.PaperScale(), 42)
		ms, err := r.Sweep(g, experiments.SweepOptions{Parallel: workers})
		if err != nil {
			t.Fatalf("Sweep(parallel=%d): %v", workers, err)
		}
		b, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("paper-scale sweep differs between 1 and 8 workers:\n1: %s\n8: %s",
			got[0], got[1])
	}
	if sum := sha256.Sum256(got[0]); hex.EncodeToString(sum[:]) != paperScaleSHA256 {
		t.Errorf("paper-scale sweep (%d bytes) hashes to %x, pinned %s", len(got[0]), sum, paperScaleSHA256)
	}
}
