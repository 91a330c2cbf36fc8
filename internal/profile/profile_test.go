package profile

import (
	"math"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/pmu"
	"pmutrust/internal/program"
	"pmutrust/internal/sampling"
)

// twoBlockProgram: entry (2 instrs) then a 10-instruction loop body block
// and a 3-instruction latch.
func loopProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("p")
	f := b.Func("main")
	e := f.Block("entry")
	e.Movi(1, 1000)
	e.Movi(2, 0)
	body := f.Block("body")
	for i := 0; i < 10; i++ {
		body.Addi(2, 2, 1)
	}
	latch := f.Block("latch")
	latch.Addi(1, 1, -1)
	latch.Cmpi(1, 0)
	latch.Jnz("body")
	f.Block("exit").Halt()
	return b.MustBuild()
}

// runWith fabricates a sampling.Run with the given samples and method.
func runWith(m sampling.Method, period uint64, samples []pmu.Sample) *sampling.Run {
	return &sampling.Run{
		Machine: machine.IvyBridge(),
		Method:  m,
		Period:  period,
		Samples: samples,
	}
}

func TestFromSamplesAveragesAcrossBlock(t *testing.T) {
	p := loopProgram(t)
	m, _ := sampling.MethodByKey("precise")
	body := p.Blocks[1]
	// Two samples landing on different instructions of the body block.
	samples := []pmu.Sample{
		{IP: uint32(body.Start)},
		{IP: uint32(body.Start + 5)},
	}
	bp := FromSamples(p, runWith(m, 1000, samples))
	if bp.TotalSamples != 2 {
		t.Errorf("TotalSamples = %d", bp.TotalSamples)
	}
	if got := bp.InstrEstimate[body.ID]; got != 2000 {
		t.Errorf("instr estimate = %v, want 2000 (2 samples × period)", got)
	}
	if got := bp.ExecEstimate[body.ID]; got != 200 {
		t.Errorf("exec estimate = %v, want 200 (2000/len 10)", got)
	}
	// Other blocks untouched.
	if bp.InstrEstimate[0] != 0 || bp.InstrEstimate[2] != 0 {
		t.Error("samples leaked into other blocks")
	}
}

func TestFromSamplesClampsOverflowIP(t *testing.T) {
	p := loopProgram(t)
	m, _ := sampling.MethodByKey("precise")
	samples := []pmu.Sample{{IP: uint32(len(p.Code))}} // IP+1 past the end
	bp := FromSamples(p, runWith(m, 100, samples))
	last := p.NumBlocks() - 1
	if bp.Samples[last] != 1 {
		t.Error("overflowing IP not clamped to the last block")
	}
}

func TestUopWeighting(t *testing.T) {
	p := loopProgram(t)
	m, _ := sampling.MethodByKey("precise")
	m.Event = pmu.EvUopsRetired
	samples := []pmu.Sample{{IP: uint32(p.Blocks[1].Start)}}
	bp := FromSamples(p, runWith(m, 1250, samples))
	// 1250 uops / 1.25 assumed uops-per-instruction = 1000 instructions.
	if got := bp.InstrEstimate[1]; math.Abs(got-1000) > 1e-9 {
		t.Errorf("uop-weighted estimate = %v, want 1000", got)
	}
}

func TestApplyLBRTopFix(t *testing.T) {
	// Case 1: recorded IP equals the newest branch target → trigger was
	// the branch source.
	lbr := []pmu.BranchRecord{{From: 3, To: 20}, {From: 40, To: 7}}
	if got := ApplyLBRTopFix(7, lbr); got != 40 {
		t.Errorf("branch-target fix = %d, want 40", got)
	}
	// Case 2: sequential: IP-1.
	if got := ApplyLBRTopFix(9, lbr); got != 8 {
		t.Errorf("sequential fix = %d, want 8", got)
	}
	// Case 3: empty LBR, IP 0: unchanged.
	if got := ApplyLBRTopFix(0, nil); got != 0 {
		t.Errorf("degenerate fix = %d", got)
	}
}

func TestFixAppliedDuringAttribution(t *testing.T) {
	p := loopProgram(t)
	m, _ := sampling.MethodByKey("pdir+ipfix")
	m.Precision = pmu.PreciseDist
	body := p.Blocks[1]
	latch := p.Blocks[2]
	// The trigger was the jnz at the end of latch (taken to body): the
	// PEBS record holds the branch target (body start) and the top LBR
	// entry proves it. The fix must attribute the sample to the latch.
	jnzIdx := uint32(latch.End() - 1)
	samples := []pmu.Sample{{
		IP:  uint32(body.Start),
		LBR: []pmu.BranchRecord{{From: jnzIdx, To: uint32(body.Start)}},
	}}
	bp := FromSamples(p, runWith(m, 100, samples))
	if bp.Samples[latch.ID] != 1 {
		t.Errorf("fixed sample not in latch: %v", bp.Samples)
	}
	if bp.Samples[body.ID] != 0 {
		t.Error("unfixed attribution to branch target remains")
	}
}

func TestToFunctionsAndRanking(t *testing.T) {
	b := program.NewBuilder("multi")
	f := b.Func("main")
	e := f.Block("entry")
	e.Call("hot")
	e.Call("cold")
	e.Halt()
	hot := b.Func("hot")
	hb := hot.Block("b")
	hb.Addi(1, 1, 1)
	hb.Ret()
	cold := b.Func("cold")
	cb := cold.Block("b")
	cb.Addi(2, 2, 1)
	cb.Ret()
	p := b.MustBuild()

	bp := NewBlockProfile(p)
	// Give "hot" 10x the mass of "cold".
	for _, blk := range p.Blocks {
		switch p.Funcs[blk.Func].Name {
		case "hot":
			bp.InstrEstimate[blk.ID] = 100
		case "cold":
			bp.InstrEstimate[blk.ID] = 10
		case "main":
			bp.InstrEstimate[blk.ID] = 1
		}
	}
	fp := bp.ToFunctions()
	rank := fp.Ranking()
	if p.Funcs[rank[0]].Name != "hot" {
		t.Errorf("rank[0] = %s", p.Funcs[rank[0]].Name)
	}
	// Deterministic tie-break: equal estimates order by ID.
	bp2 := NewBlockProfile(p)
	fp2 := bp2.ToFunctions()
	r2 := fp2.Ranking()
	for i := 1; i < len(r2); i++ {
		if r2[i] < r2[i-1] {
			t.Error("tie-break not by ID")
		}
	}
}
