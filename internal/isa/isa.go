// Package isa defines the synthetic instruction set executed by the CPU
// simulator (internal/cpu).
//
// The ISA is a small fixed-width RISC-like set, chosen so that the
// retirement-stream phenomena the paper studies — long-latency shadows,
// taken-branch density, multi-uop instructions, call/return chains — can
// all be expressed, while keeping the simulator fast enough to retire tens
// of millions of instructions per second.
//
// Addresses: every instruction occupies one slot in the program's flat code
// array; the slot index is the canonical "address". Display addresses
// multiply by 4 and add a base (see program.DisplayAddr) to look like the
// x86 profiles in the paper.
package isa

// Reg identifies one of the 16 general-purpose integer registers r0..r15.
// By convention the workload generators use r0..r7 as data registers,
// r8..r11 as loop counters, r12..r13 as LCG state for data-driven
// branching, and r14..r15 as scratch.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 16

// Op enumerates the instruction opcodes.
type Op uint8

const (
	// OpNop does nothing. 1 cycle, 1 uop.
	OpNop Op = iota
	// OpMov copies Src1 to Dst.
	OpMov
	// OpMovi loads the immediate Imm into Dst.
	OpMovi
	// OpAdd computes Dst = Src1 + Src2.
	OpAdd
	// OpAddi computes Dst = Src1 + Imm.
	OpAddi
	// OpSub computes Dst = Src1 - Src2.
	OpSub
	// OpMul computes Dst = Src1 * Src2. 3-cycle latency.
	OpMul
	// OpDiv computes Dst = Src1 / Src2 (0 if Src2 == 0; the simulator has
	// no faults). Long latency, multi-uop: the canonical "expensive"
	// instruction whose shadow distorts naive sampling.
	OpDiv
	// OpRem computes Dst = Src1 % Src2 (0 if Src2 == 0). Same cost as div.
	OpRem
	// OpAnd computes Dst = Src1 & Src2.
	OpAnd
	// OpOr computes Dst = Src1 | Src2.
	OpOr
	// OpXor computes Dst = Src1 ^ Src2.
	OpXor
	// OpShl computes Dst = Src1 << (Imm & 63).
	OpShl
	// OpShr computes Dst = Src1 >> (Imm & 63) (logical).
	OpShr
	// OpLoad loads Dst from memory word (Src1 + Imm) % memsize. Medium
	// latency, models an L1 hit; workloads emulate pointer chasing by
	// chaining loads through the address register.
	OpLoad
	// OpStore stores Src1 to memory word (Src2 + Imm) % memsize. 2 uops
	// (address generation + data), retiring as one instruction.
	OpStore
	// OpFadd is floating point add on the integer register file
	// (bit-pattern semantics are irrelevant to profiling; cost is what
	// matters). 3-cycle latency.
	OpFadd
	// OpFmul is floating point multiply. 5-cycle latency.
	OpFmul
	// OpFdiv is floating point divide: the longest-latency op.
	OpFdiv
	// OpFma is fused multiply-add: Dst = Src1*Src2 + Dst. 5 cycles, 1 uop.
	OpFma
	// OpCmp compares Src1 and Src2 and sets the (single, implicit) flags
	// register used by conditional branches.
	OpCmp
	// OpCmpi compares Src1 with Imm and sets flags.
	OpCmpi
	// OpJmp unconditionally branches to Target. Always taken.
	OpJmp
	// OpJz branches to Target when the last comparison was "equal".
	OpJz
	// OpJnz branches to Target when the last comparison was "not equal".
	OpJnz
	// OpJlt branches to Target when the last comparison was "less than"
	// (signed).
	OpJlt
	// OpJge branches to Target when the last comparison was "greater or
	// equal" (signed).
	OpJge
	// OpCall pushes the return address and branches to Target (a function
	// entry). Always taken; 2 uops.
	OpCall
	// OpRet pops the return address and branches to it. Always taken.
	OpRet
	// OpHalt terminates execution. Exactly one per program, in the exit
	// block of the entry function.
	OpHalt

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Instr is one decoded instruction. Instructions are fixed-width and fully
// decoded at build time; the simulator never re-parses anything.
type Instr struct {
	// Op is the opcode.
	Op Op
	// Dst is the destination register for ops that write one.
	Dst Reg
	// Src1 and Src2 are source registers.
	Src1, Src2 Reg
	// Imm is the immediate operand (OpMovi, OpAddi, OpShl/OpShr shift
	// amounts, OpLoad/OpStore displacements, OpCmpi).
	Imm int64
	// Target is the code-array index this instruction branches to, for
	// branch/call ops. Resolved by the program builder; -1 when unused.
	Target int32
}

// Class groups opcodes by execution resource, for reporting and for the
// timing model.
type Class uint8

const (
	// ClassALU is single-cycle integer arithmetic/logic.
	ClassALU Class = iota
	// ClassMul is the integer multiplier.
	ClassMul
	// ClassDiv is the (long-latency) divider.
	ClassDiv
	// ClassFP is pipelined floating point.
	ClassFP
	// ClassFPDiv is the floating point divider.
	ClassFPDiv
	// ClassMem is load/store.
	ClassMem
	// ClassBranch is all control flow (jumps, calls, returns).
	ClassBranch
	// ClassOther is NOP and HALT.
	ClassOther
)

// opInfo is the static property table, indexed by Op.
var opInfo = [numOps]struct {
	mnemonic string
	latency  uint8
	uops     uint8
	class    Class
	cond     bool // conditional branch
	branch   bool // any control transfer
	call     bool
	ret      bool
	writes   bool // writes Dst
	reads1   bool // reads Src1
	reads2   bool // reads Src2
	setsF    bool // sets flags
	readsF   bool // reads flags
}{
	OpNop:   {"nop", 1, 1, ClassOther, false, false, false, false, false, false, false, false, false},
	OpMov:   {"mov", 1, 1, ClassALU, false, false, false, false, true, true, false, false, false},
	OpMovi:  {"movi", 1, 1, ClassALU, false, false, false, false, true, false, false, false, false},
	OpAdd:   {"add", 1, 1, ClassALU, false, false, false, false, true, true, true, false, false},
	OpAddi:  {"addi", 1, 1, ClassALU, false, false, false, false, true, true, false, false, false},
	OpSub:   {"sub", 1, 1, ClassALU, false, false, false, false, true, true, true, false, false},
	OpMul:   {"mul", 3, 1, ClassMul, false, false, false, false, true, true, true, false, false},
	OpDiv:   {"div", 22, 4, ClassDiv, false, false, false, false, true, true, true, false, false},
	OpRem:   {"rem", 22, 4, ClassDiv, false, false, false, false, true, true, true, false, false},
	OpAnd:   {"and", 1, 1, ClassALU, false, false, false, false, true, true, true, false, false},
	OpOr:    {"or", 1, 1, ClassALU, false, false, false, false, true, true, true, false, false},
	OpXor:   {"xor", 1, 1, ClassALU, false, false, false, false, true, true, true, false, false},
	OpShl:   {"shl", 1, 1, ClassALU, false, false, false, false, true, true, false, false, false},
	OpShr:   {"shr", 1, 1, ClassALU, false, false, false, false, true, true, false, false, false},
	OpLoad:  {"load", 4, 1, ClassMem, false, false, false, false, true, true, false, false, false},
	OpStore: {"store", 1, 2, ClassMem, false, false, false, false, false, true, true, false, false},
	OpFadd:  {"fadd", 3, 1, ClassFP, false, false, false, false, true, true, true, false, false},
	OpFmul:  {"fmul", 5, 1, ClassFP, false, false, false, false, true, true, true, false, false},
	OpFdiv:  {"fdiv", 24, 4, ClassFPDiv, false, false, false, false, true, true, true, false, false},
	OpFma:   {"fma", 5, 1, ClassFP, false, false, false, false, true, true, true, false, false},
	OpCmp:   {"cmp", 1, 1, ClassALU, false, false, false, false, false, true, true, true, false},
	OpCmpi:  {"cmpi", 1, 1, ClassALU, false, false, false, false, false, true, false, true, false},
	OpJmp:   {"jmp", 1, 1, ClassBranch, false, true, false, false, false, false, false, false, false},
	OpJz:    {"jz", 1, 1, ClassBranch, true, true, false, false, false, false, false, false, true},
	OpJnz:   {"jnz", 1, 1, ClassBranch, true, true, false, false, false, false, false, false, true},
	OpJlt:   {"jlt", 1, 1, ClassBranch, true, true, false, false, false, false, false, false, true},
	OpJge:   {"jge", 1, 1, ClassBranch, true, true, false, false, false, false, false, false, true},
	OpCall:  {"call", 2, 2, ClassBranch, false, true, true, false, false, false, false, false, false},
	OpRet:   {"ret", 2, 1, ClassBranch, false, true, false, true, false, false, false, false, false},
	OpHalt:  {"halt", 1, 1, ClassOther, false, false, false, false, false, false, false, false, false},
}

// MaxUops is the largest Uops() value of any defined opcode. The PMU's
// bulk-advance headroom conversion divides by it to turn a uop budget into
// a guaranteed-safe instruction count (internal/pmu FastHeadroom); a test
// asserts it stays in sync with the opcode table.
const MaxUops = 4

// MaxLatency is the largest Latency() value of any defined opcode (OpFdiv).
// cpu.Config.MaxRetireCyclesPerInstr folds it into the worst-case
// retirement-cycle advance per instruction, which sizes the fast engine's
// stride-loop fence against a monitor's cycle deadline; a test asserts it
// stays in sync with the opcode table.
const MaxLatency = 24

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Mnemonic returns the assembly mnemonic.
func (o Op) Mnemonic() string {
	if !o.Valid() {
		return "invalid"
	}
	return opInfo[o].mnemonic
}

// Latency returns the execution latency in cycles.
func (o Op) Latency() uint8 { return opInfo[o].latency }

// Uops returns the number of micro-operations the instruction decodes to.
// Multi-uop instructions matter for AMD IBS, which samples uops rather
// than instructions (paper §6.2).
func (o Op) Uops() uint8 { return opInfo[o].uops }

// ClassOf returns the execution resource class.
func (o Op) ClassOf() Class { return opInfo[o].class }

// IsBranch reports whether the op is any control transfer (including calls
// and returns).
func (o Op) IsBranch() bool { return opInfo[o].branch }

// IsCondBranch reports whether the op is a conditional branch.
func (o Op) IsCondBranch() bool { return opInfo[o].cond }

// IsCall reports whether the op is a call.
func (o Op) IsCall() bool { return opInfo[o].call }

// IsRet reports whether the op is a return.
func (o Op) IsRet() bool { return opInfo[o].ret }

// WritesDst reports whether the op writes its Dst register.
func (o Op) WritesDst() bool { return opInfo[o].writes }

// ReadsSrc1 reports whether the op reads Src1.
func (o Op) ReadsSrc1() bool { return opInfo[o].reads1 }

// ReadsSrc2 reports whether the op reads Src2.
func (o Op) ReadsSrc2() bool { return opInfo[o].reads2 }

// SetsFlags reports whether the op writes the flags register.
func (o Op) SetsFlags() bool { return opInfo[o].setsF }

// ReadsFlags reports whether the op reads the flags register.
func (o Op) ReadsFlags() bool { return opInfo[o].readsF }

// String implements fmt.Stringer.
func (o Op) String() string { return o.Mnemonic() }

// ClassName returns a human-readable name for an execution class.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassFP:
		return "fp"
	case ClassFPDiv:
		return "fpdiv"
	case ClassMem:
		return "mem"
	case ClassBranch:
		return "branch"
	case ClassOther:
		return "other"
	default:
		return "unknown"
	}
}
