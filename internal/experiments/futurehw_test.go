package experiments

import (
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/sampling"
)

func TestRunFutureHW(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel set four ways")
	}
	r := NewRunner(SmallScale(), 13)
	tbl, res, err := r.RunFutureHW()
	if err != nil {
		t.Fatalf("RunFutureHW: %v", err)
	}
	t.Logf("\n%s", tbl.String())
	for _, k := range []string{"LatencyBiased", "CallChain", "G4Box", "Test40"} {
		// Clean: the hardware fix must be at least as good as the
		// software LBR-top fix (both are near-exact; allow 20% noise).
		if res.FutureClean[k] > res.IvyClean[k]*1.2 {
			t.Errorf("%s: FutureGen clean %.4f worse than IVB clean %.4f",
				k, res.FutureClean[k], res.IvyClean[k])
		}
		// Contended: FutureGen must be unaffected (within noise of its
		// clean number) while IVB degrades measurably.
		if res.FutureContended[k] > res.FutureClean[k]*1.25 {
			t.Errorf("%s: FutureGen degraded under contention: %.4f vs clean %.4f",
				k, res.FutureContended[k], res.FutureClean[k])
		}
		if res.IvyContended[k] < res.IvyClean[k]*1.1 {
			t.Errorf("%s: IVB software fix unaffected by contention (%.4f vs %.4f) — model broken?",
				k, res.IvyContended[k], res.IvyClean[k])
		}
	}
}

func TestFutureGenResolveDropsFix(t *testing.T) {
	// On FutureGen the pdir+ipfix method must lower to FixNone and stop
	// requiring the LBR.
	m, err := sampling.MethodByKey("pdir+ipfix")
	if err != nil {
		t.Fatal(err)
	}
	resolved, ok := sampling.Resolve(m, machine.FutureGen())
	if !ok {
		t.Fatal("pdir+ipfix unsupported on FutureGen")
	}
	if resolved.NeedsLBR() {
		t.Error("hardware-fixed machine still requires LBR for the IP fix")
	}
	// The paper machines keep the software fix.
	resolved, ok = sampling.Resolve(m, machine.IvyBridge())
	if !ok || !resolved.NeedsLBR() {
		t.Error("IvyBridge lost its software LBR fix")
	}
}
