// Package program models executable programs as functions of basic blocks,
// and provides a builder DSL the workload generators use to construct them.
//
// A built Program carries a flat code array plus constant-time lookup
// tables from any code index to its basic block and function. These tables
// are what makes sample attribution (internal/profile) and LBR decoding
// (internal/lbr) O(1) per sample, which in turn is what lets the benchmark
// harness run the paper's full method × machine × workload matrix.
package program

import (
	"fmt"

	"pmutrust/internal/isa"
)

// DisplayBase is the fake load address used when rendering instruction
// indices as addresses, purely cosmetic (profiles then resemble the paper's
// x86 tooling output).
const DisplayBase = 0x400000

// DisplayAddr converts a code index to a display address.
func DisplayAddr(idx int) uint64 { return DisplayBase + uint64(idx)*4 }

// Block is one basic block: a maximal straight-line instruction sequence
// with a single entry (its first instruction) and a single exit (its last).
// Only the last instruction may be a control transfer.
type Block struct {
	// Label is the block's unique (within its function) name.
	Label string
	// ID is the global block index assigned at build time.
	ID int
	// Func is the index of the owning function in Program.Funcs.
	Func int
	// Start is the code-array index of the first instruction.
	Start int
	// Instrs is the instruction sequence. Never empty after Build.
	Instrs []isa.Instr
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Instrs) }

// End returns the code-array index one past the last instruction.
func (b *Block) End() int { return b.Start + len(b.Instrs) }

// Terminator returns the last instruction.
func (b *Block) Terminator() isa.Instr { return b.Instrs[len(b.Instrs)-1] }

// FullName returns "func.label", unique within the program.
func (b *Block) FullName(p *Program) string {
	return p.Funcs[b.Func].Name + "." + b.Label
}

// Function is a named sequence of basic blocks. The first block is the
// entry point. Blocks are laid out in declaration order, so a block that
// does not end in an unconditional transfer falls through to the next
// declared block.
type Function struct {
	// Name is the function's unique name.
	Name string
	// ID is the function index in Program.Funcs.
	ID int
	// Blocks are the function's basic blocks in layout order.
	Blocks []*Block
	// Start and End delimit the function's code-array range.
	Start, End int
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Program is a built, validated, immutable program.
type Program struct {
	// Name identifies the workload.
	Name string
	// Funcs is the function list; Funcs[0] is the program entry.
	Funcs []*Function
	// Blocks is the flattened block list across all functions, in address
	// order. Block IDs index this slice.
	Blocks []*Block
	// Code is the flat instruction array. Instruction "addresses" are
	// indices into this slice.
	Code []isa.Instr
	// BlockOf maps a code index to the ID of its containing block.
	BlockOf []int32
	// FuncOf maps a code index to the ID of its containing function.
	FuncOf []int32
	// MemWords is the number of 64-bit memory words the program needs.
	MemWords int
}

// NumInstrs returns the static instruction count.
func (p *Program) NumInstrs() int { return len(p.Code) }

// NumBlocks returns the number of basic blocks.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// NumFuncs returns the number of functions.
func (p *Program) NumFuncs() int { return len(p.Funcs) }

// BlockAt returns the block containing code index idx.
func (p *Program) BlockAt(idx int) *Block {
	return p.Blocks[p.BlockOf[idx]]
}

// FindFunc returns the function with the given name, or nil.
func (p *Program) FindFunc(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Successors returns the possible successor block IDs of block b:
// the branch target (if any) and the fall-through (if the terminator can
// fall through). Used for CFG export and validation.
func (p *Program) Successors(b *Block) []int {
	term := b.Terminator()
	var succs []int
	if term.Op.IsBranch() && !term.Op.IsRet() {
		succs = append(succs, int(p.BlockOf[term.Target]))
	}
	fallsThrough := !term.Op.IsBranch() || term.Op.IsCondBranch() || term.Op.IsCall()
	if term.Op == isa.OpHalt {
		fallsThrough = false
	}
	if fallsThrough && b.End() < len(p.Code) {
		// Fall-through stays within the function by construction
		// (validated at build time).
		succs = append(succs, int(p.BlockOf[b.End()]))
	}
	return succs
}

// Validate re-checks the program's structural invariants. Build always
// returns validated programs; Validate exists so tests (including
// testing/quick properties over generated workloads) can assert the
// invariants independently.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program %q: no functions", p.Name)
	}
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	if len(p.BlockOf) != len(p.Code) || len(p.FuncOf) != len(p.Code) {
		return fmt.Errorf("program %q: lookup table size mismatch", p.Name)
	}
	next := 0
	for bi, b := range p.Blocks {
		if b.ID != bi {
			return fmt.Errorf("block %d: ID mismatch (%d)", bi, b.ID)
		}
		if b.Start != next {
			return fmt.Errorf("block %s: starts at %d, want %d", b.Label, b.Start, next)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s: empty", b.Label)
		}
		next = b.End()
		for i := b.Start; i < b.End(); i++ {
			if int(p.BlockOf[i]) != bi {
				return fmt.Errorf("BlockOf[%d] = %d, want %d", i, p.BlockOf[i], bi)
			}
			if int(p.FuncOf[i]) != b.Func {
				return fmt.Errorf("FuncOf[%d] = %d, want %d", i, p.FuncOf[i], b.Func)
			}
		}
		for i, in := range b.Instrs {
			if !in.Op.Valid() {
				return fmt.Errorf("block %s: invalid opcode %d at offset %d",
					b.Label, in.Op, i)
			}
			if in.Dst >= isa.NumRegs || in.Src1 >= isa.NumRegs || in.Src2 >= isa.NumRegs {
				return fmt.Errorf("block %s: register out of range in %s at offset %d",
					b.Label, in.Op, i)
			}
			if (in.Op.IsBranch() || in.Op == isa.OpHalt) && i != len(b.Instrs)-1 {
				return fmt.Errorf("block %s: terminator %s mid-block at offset %d",
					b.Label, in.Op, i)
			}
			if in.Op.IsBranch() && !in.Op.IsRet() {
				if in.Target < 0 || int(in.Target) >= len(p.Code) {
					return fmt.Errorf("block %s: branch target %d out of range", b.Label, in.Target)
				}
				tgtBlock := p.Blocks[p.BlockOf[in.Target]]
				if tgtBlock.Start != int(in.Target) {
					return fmt.Errorf("block %s: branch into middle of block %s",
						b.Label, tgtBlock.Label)
				}
				if in.Op.IsCall() {
					tf := p.Funcs[tgtBlock.Func]
					if tf.Start != int(in.Target) {
						return fmt.Errorf("block %s: call to non-entry block of %s",
							b.Label, tf.Name)
					}
				} else if tgtBlock.Func != b.Func {
					return fmt.Errorf("block %s: jump crosses into function %s",
						b.Label, p.Funcs[tgtBlock.Func].Name)
				}
			}
		}
	}
	if next != len(p.Code) {
		return fmt.Errorf("blocks cover %d instructions, code has %d", next, len(p.Code))
	}
	for fi, f := range p.Funcs {
		if f.ID != fi {
			return fmt.Errorf("function %s: ID mismatch", f.Name)
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("function %s: no blocks", f.Name)
		}
		if f.Start != f.Blocks[0].Start || f.End != f.Blocks[len(f.Blocks)-1].End() {
			return fmt.Errorf("function %s: start/end out of sync with blocks", f.Name)
		}
		// The last block of a non-entry function must not fall through off
		// the end of the function.
		last := f.Blocks[len(f.Blocks)-1]
		term := last.Terminator()
		ends := term.Op.IsRet() || term.Op == isa.OpHalt || term.Op == isa.OpJmp
		if !ends {
			return fmt.Errorf("function %s: last block %s can fall off the function end",
				f.Name, last.Label)
		}
	}
	// Exactly one halt, in the entry function.
	halts := 0
	for i, in := range p.Code {
		if in.Op == isa.OpHalt {
			halts++
			if int(p.FuncOf[i]) != 0 {
				return fmt.Errorf("halt outside entry function at index %d", i)
			}
		}
	}
	if halts != 1 {
		return fmt.Errorf("program has %d halt instructions, want exactly 1", halts)
	}
	return nil
}
