package program

import (
	"strings"
	"testing"

	"pmutrust/internal/isa"
)

// tinyProgram builds a two-function program exercising every builder
// feature: fallthrough, conditional/unconditional jumps, calls, mid-block
// call splitting.
func tinyProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("tiny")
	f := b.Func("main")
	entry := f.Block("entry")
	entry.Movi(1, 10)
	entry.Movi(2, 0)
	loop := f.Block("loop")
	loop.Call("work") // mid-block call: split point
	loop.Addi(1, 1, -1)
	loop.Cmpi(1, 0)
	loop.Jnz("loop")
	exit := f.Block("exit")
	exit.Halt()

	w := b.Func("work")
	wb := w.Block("body")
	wb.Addi(2, 2, 1)
	wb.Cmpi(2, 5)
	wb.Jlt("skip")
	big := w.Block("big")
	big.Add(2, 2, 2)
	skip := w.Block("skip")
	skip.Ret()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildAndValidate(t *testing.T) {
	p := tinyProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumFuncs() != 2 {
		t.Errorf("funcs = %d", p.NumFuncs())
	}
	// loop block split at the call: "loop" = [call], "loop$1" = rest.
	var labels []string
	for _, blk := range p.Funcs[0].Blocks {
		labels = append(labels, blk.Label)
	}
	want := "entry,loop,loop$1,exit"
	if got := strings.Join(labels, ","); got != want {
		t.Errorf("main blocks = %s, want %s", got, want)
	}
}

func TestLookupTables(t *testing.T) {
	p := tinyProgram(t)
	for i := range p.Code {
		blk := p.BlockAt(i)
		if i < blk.Start || i >= blk.End() {
			t.Fatalf("BlockAt(%d) = %s [%d,%d)", i, blk.Label, blk.Start, blk.End())
		}
		fn := p.Funcs[p.FuncOf[i]]
		if i < fn.Start || i >= fn.End {
			t.Fatalf("FuncOf[%d] out of range", i)
		}
		if p.Blocks[p.BlockOf[i]].Func != fn.ID {
			t.Fatalf("block/function tables disagree at %d", i)
		}
	}
}

func TestFindFunc(t *testing.T) {
	p := tinyProgram(t)
	if p.FindFunc("work") == nil {
		t.Error("FindFunc(work) = nil")
	}
	if p.FindFunc("nope") != nil {
		t.Error("FindFunc(nope) != nil")
	}
	if p.Funcs[0].Entry().Label != "entry" {
		t.Error("entry block wrong")
	}
}

func TestSuccessors(t *testing.T) {
	p := tinyProgram(t)
	find := func(fn, label string) *Block {
		for _, blk := range p.FindFunc(fn).Blocks {
			if blk.Label == label {
				return blk
			}
		}
		t.Fatalf("block %s.%s not found", fn, label)
		return nil
	}
	// "loop" ends in a call: successors are the callee entry and the
	// fallthrough.
	succs := p.Successors(find("main", "loop"))
	if len(succs) != 2 {
		t.Fatalf("call successors = %v", succs)
	}
	if p.Blocks[succs[0]].FullName(p) != "work.body" {
		t.Errorf("call target = %s", p.Blocks[succs[0]].FullName(p))
	}
	if p.Blocks[succs[1]].FullName(p) != "main.loop$1" {
		t.Errorf("call fallthrough = %s", p.Blocks[succs[1]].FullName(p))
	}
	// Conditional branch: target + fallthrough.
	succs = p.Successors(find("work", "body"))
	if len(succs) != 2 {
		t.Fatalf("cond successors = %v", succs)
	}
	// Halt and ret have no successors.
	if s := p.Successors(find("main", "exit")); len(s) != 0 {
		t.Errorf("halt successors = %v", s)
	}
	if s := p.Successors(find("work", "skip")); len(s) != 0 {
		t.Errorf("ret successors = %v", s)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("no functions", func(t *testing.T) {
		if _, err := NewBuilder("x").Build(); err == nil {
			t.Error("no error for empty program")
		}
	})
	t.Run("empty block", func(t *testing.T) {
		b := NewBuilder("x")
		f := b.Func("main")
		f.Block("empty")
		if _, err := b.Build(); err == nil {
			t.Error("no error for empty block")
		}
	})
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder("x")
		f := b.Func("main")
		f.Block("a").Jmp("nowhere")
		if _, err := b.Build(); err == nil {
			t.Error("no error for undefined label")
		}
	})
	t.Run("undefined callee", func(t *testing.T) {
		b := NewBuilder("x")
		f := b.Func("main")
		blk := f.Block("a")
		blk.Call("ghost")
		blk.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("no error for undefined callee")
		}
	})
	t.Run("fall off function end", func(t *testing.T) {
		b := NewBuilder("x")
		f := b.Func("main")
		f.Block("a").Halt()
		g := b.Func("g")
		g.Block("b").Nop() // no ret: falls off the end
		if _, err := b.Build(); err == nil {
			t.Error("no error for falling off function end")
		}
	})
	t.Run("no halt", func(t *testing.T) {
		b := NewBuilder("x")
		f := b.Func("main")
		blk := f.Block("a")
		blk.Nop()
		blk.Jmp("a")
		if _, err := b.Build(); err == nil {
			t.Error("no error for missing halt")
		}
	})
}

func TestBuilderPanics(t *testing.T) {
	t.Run("duplicate function", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for duplicate function")
			}
		}()
		b := NewBuilder("x")
		b.Func("f")
		b.Func("f")
	})
	t.Run("duplicate block", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for duplicate block")
			}
		}()
		b := NewBuilder("x")
		f := b.Func("f")
		f.Block("a")
		f.Block("a")
	})
}

func TestDisasmOutput(t *testing.T) {
	p := tinyProgram(t)
	d := p.Disasm()
	for _, want := range []string{"main:", "work:", ".entry:", "call work.body", "jnz main.loop", "halt"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestDotOutput(t *testing.T) {
	p := tinyProgram(t)
	d := p.Dot()
	for _, want := range []string{"digraph cfg", "cluster_0", "cluster_1", "->"} {
		if !strings.Contains(d, want) {
			t.Errorf("dot missing %q", want)
		}
	}
}

func TestStats(t *testing.T) {
	p := tinyProgram(t)
	s := p.Stats()
	if s.Instrs != len(p.Code) {
		t.Errorf("stats instrs = %d", s.Instrs)
	}
	if s.Blocks != p.NumBlocks() || s.Funcs != 2 {
		t.Errorf("stats shape wrong: %+v", s)
	}
	if s.Branches == 0 || s.MeanBlockLen <= 0 {
		t.Errorf("stats empty: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestDisplayAddr(t *testing.T) {
	if DisplayAddr(0) != DisplayBase {
		t.Error("DisplayAddr(0)")
	}
	if DisplayAddr(3) != DisplayBase+12 {
		t.Error("DisplayAddr(3)")
	}
}

func TestMemWordsDefault(t *testing.T) {
	p := tinyProgram(t)
	if p.MemWords <= 0 {
		t.Error("MemWords not defaulted")
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	NewBuilder("bad").MustBuild()
}

// TestValidateDetectsCorruption corrupts a valid program in various ways
// and checks Validate notices each one (failure injection on the
// structural invariants).
func TestValidateDetectsCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(p *Program)
	}{
		{"blockOf wrong", func(p *Program) { p.BlockOf[2] = 0 }},
		{"funcOf wrong", func(p *Program) { p.FuncOf[len(p.Code)-1] = 0 }},
		{"branch into mid-block", func(p *Program) {
			// Aim the jnz into the middle of the entry block (2 instrs).
			mid := int32(p.Funcs[0].Entry().Start + 1)
			for i := range p.Code {
				if p.Code[i].Op == isa.OpJnz {
					p.Code[i].Target = mid
					blk := p.Blocks[p.BlockOf[i]]
					blk.Instrs[i-blk.Start].Target = mid
					return
				}
			}
		}},
		{"target out of range", func(p *Program) {
			for i := range p.Code {
				if p.Code[i].Op == isa.OpJnz {
					p.Code[i].Target = int32(len(p.Code)) + 5
					blk := p.Blocks[p.BlockOf[i]]
					blk.Instrs[i-blk.Start].Target = int32(len(p.Code)) + 5
					return
				}
			}
		}},
		{"invalid opcode", func(p *Program) {
			blk := p.Blocks[0]
			p.Code[blk.Start].Op = isa.Op(isa.NumOps)
			blk.Instrs[0].Op = isa.Op(isa.NumOps)
		}},
		{"register out of range", func(p *Program) {
			blk := p.Blocks[0]
			p.Code[blk.Start].Src1 = isa.NumRegs
			blk.Instrs[0].Src1 = isa.NumRegs
		}},
		{"second halt outside entry", func(p *Program) {
			// Replace work.skip's ret with halt.
			f := p.FindFunc("work")
			last := f.Blocks[len(f.Blocks)-1]
			last.Instrs[len(last.Instrs)-1] = isa.Instr{Op: isa.OpHalt}
			p.Code[last.End()-1] = isa.Instr{Op: isa.OpHalt}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProgram(t)
			tc.corrupt(p)
			if err := p.Validate(); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
}
