package cpu

import (
	"pmutrust/internal/isa"
	"pmutrust/internal/program"
)

// Engine selects the execution engine for a run. Both engines are
// bit-identical in every observable: Result, the monitor-visible event
// stream (for the fast engine, the bulk-advance contract below), and error
// text. The differential harness in this package and internal/sampling
// enforces that equivalence on the full workload grid and on fuzzed
// programs.
type Engine uint8

const (
	// EngineFast is the block-stride fast-path executor (RunFast), the
	// default everywhere: same results, a multiple of the speed.
	EngineFast Engine = iota
	// EngineInterp is the per-instruction reference interpreter (Run).
	EngineInterp
)

// String returns the engine name used by flags and benchmarks.
func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineInterp:
		return "interp"
	default:
		return "unknown"
	}
}

// RunEngine dispatches Run or RunFast according to eng.
func RunEngine(p *program.Program, cfg Config, mon Monitor, maxInstrs uint64, eng Engine) (Result, error) {
	if eng == EngineInterp {
		return Run(p, cfg, mon, maxInstrs)
	}
	return RunFast(p, cfg, mon, maxInstrs)
}

// BulkCounts is the per-event-class retirement total of one fast-path
// stride — everything a counting PMU can observe about a stride without
// seeing individual instructions. The fields mirror the countable events
// of internal/pmu. The Result-shaped classes (instructions, uops, taken
// branches, conditional branches, mispredicts) are computed as deltas of
// the engine's own run counters at flush time; the remaining classes cost
// one increment in the already-dispatched opcode case of the stride loop,
// so richer multiplexed counting (loads, stores, FP ops, call/ret pairs)
// never forces the engine out of stride mode.
type BulkCounts struct {
	// Instrs is the number of retired instructions.
	Instrs uint64
	// Uops is the number of retired micro-ops.
	Uops uint64
	// TakenBranches counts retired taken control transfers.
	TakenBranches uint64
	// CondBranches counts retired conditional branches (taken or not).
	CondBranches uint64
	// Mispredicts counts mispredicted conditional branches.
	Mispredicts uint64
	// Loads and Stores count retired memory operations.
	Loads, Stores uint64
	// FPOps counts retired floating-point arithmetic (fadd/fmul/fdiv/fma).
	FPOps uint64
	// Calls and Rets count retired calls and returns.
	Calls, Rets uint64
}

// FastMonitor is the bulk-advance contract a Monitor may implement to let
// RunFast skip per-instruction event delivery. The protocol:
//
//   - FastHeadroom(horizon) returns how many instructions the monitor can
//     absorb with no observable action of any kind — no sample, no
//     overflow, no interrupt bookkeeping, no counter rotation — and the
//     first retirement cycle it must observe (NoDeadline if none). The
//     engine owns the clock: horizon is its exact retirement cycle plus a
//     guard no stride-loop iteration can retire past, and it ends a
//     stride before any retirement could reach the deadline. A monitor
//     with a cycle deadline therefore refuses only once horizon ≥
//     deadline. A zero grant means "I must see every retirement": the
//     engine then delivers full RetireEvents through OnRetire, exactly as
//     the interpreter does, and asks again after each one.
//   - While striding inside a headroom grant the engine does not call
//     OnRetire at all. It accumulates per-event-class totals (BulkCounts)
//     and flushes them with one BulkRetire call before the next
//     FastHeadroom query, the next OnRetire, or run end — so the monitor's
//     counters are exact at every point where it could observe them.
//   - If WantBranches reports true, the engine additionally reports every
//     retired taken branch during a stride via OnFastBranch, in retirement
//     order (the LBR ring must see all taken branches even when no sample
//     is near).
//
// The PMU and the multiplexed virtual PMU (internal/pmu PMU and Mux) are
// the production implementations; Broadcast shares one execution among
// several of them, and NopMonitor implements it trivially.
type FastMonitor interface {
	Monitor

	// FastHeadroom returns the number of instructions that can retire
	// without any monitor-observable action beyond bulk counting and the
	// branch stream (0 demands per-instruction OnRetire delivery), and
	// the first cycle at which a retirement must be delivered through
	// OnRetire. A nonzero grant requires deadline > horizon.
	FastHeadroom(horizon uint64) (grant, deadline uint64)

	// WantBranches reports whether OnFastBranch must be called for every
	// taken branch retired inside a stride.
	WantBranches() bool

	// OnFastBranch records one retired taken branch (from, to are code
	// indices; op distinguishes calls and returns for call-stack-filtered
	// consumers).
	OnFastBranch(from, to uint32, op isa.Op)

	// BulkRetire accounts a completed stride's totals. The engine
	// guarantees the stride fits inside the last FastHeadroom grant and
	// retires nothing at or past its deadline.
	BulkRetire(c BulkCounts)
}

// NoDeadline is the FastHeadroom deadline of a monitor with no cycle
// deadline: the stride-loop fence never fires.
const NoDeadline = ^uint64(0)

// NopMonitor's FastMonitor implementation: unlimited headroom, nothing
// recorded, so timing-only runs take the fast path end to end.

// FastHeadroom implements FastMonitor.
func (NopMonitor) FastHeadroom(horizon uint64) (uint64, uint64) { return 1 << 40, NoDeadline }

// WantBranches implements FastMonitor.
func (NopMonitor) WantBranches() bool { return false }

// OnFastBranch implements FastMonitor.
func (NopMonitor) OnFastBranch(from, to uint32, op isa.Op) {}

// BulkRetire implements FastMonitor.
func (NopMonitor) BulkRetire(c BulkCounts) {}

// Decoded-instruction flag bits (fastInstr.fl), used by the generic
// (event-mode) body.
const (
	fReads1 = 1 << iota // reads Src1
	fReads2             // reads Src2
	fReadsF             // reads flags
	fWrites             // writes Dst
	fSetsF              // sets flags
	fCond               // conditional branch
)

// fastInstr is one predecoded instruction: the opcode's static property
// table (latency, uops, operand flags) flattened into the instruction so
// the stride loop never chases opInfo through method calls. The immediate
// and the branch target are mutually exclusive in the ISA (branches and
// calls carry no immediate operand), so they share one field and the
// whole record packs into 16 bytes — four instructions per cache line.
type fastInstr struct {
	imm  int64 // immediate, or the control-transfer target for jmp/jcc/call
	op   isa.Op
	dst  uint8
	src1 uint8
	src2 uint8
	lat  uint8
	uops uint8
	fl   uint8
}

// decodeProgram flattens p into the predecoded fast representation. The
// basic-block structure is what makes the stride loop's shape legal:
// program.Validate guarantees control transfers only terminate blocks and
// only target block heads, so a stride is a chain of whole blocks in which
// every instruction's successor is statically pc+1 except at block
// terminators — exactly the cases the specialized switch handles.
// Decode-time fused superinstructions: a cmp/cmpi whose immediate
// successor is a conditional branch that no control transfer targets
// (reachable only by falling out of the compare). The stride loop executes
// the pair in one dispatch, halving loop overhead on it; event mode
// executes the head as its plain compare and the branch as itself. The
// values sit directly after the ISA opcodes so the dispatch switches stay
// dense jump tables.
const (
	opCmpJz isa.Op = isa.Op(isa.NumOps) + iota
	opCmpJnz
	opCmpJlt
	opCmpJge
	opCmpiJz
	opCmpiJnz
	opCmpiJlt
	opCmpiJge
)

// ALU/memory/FP pair superinstructions: any fusable head glued to an
// untargeted successor from the same class (or an unconditional jmp). The
// head's opcode is rewritten to its opPair form; the glued instruction's
// entry stays intact and is read as the pair's second half.
const (
	opPairMov   isa.Op = isa.Op(isa.NumOps) + 8 + 0
	opPairMovi  isa.Op = isa.Op(isa.NumOps) + 8 + 1
	opPairAdd   isa.Op = isa.Op(isa.NumOps) + 8 + 2
	opPairAddi  isa.Op = isa.Op(isa.NumOps) + 8 + 3
	opPairSub   isa.Op = isa.Op(isa.NumOps) + 8 + 4
	opPairMul   isa.Op = isa.Op(isa.NumOps) + 8 + 5
	opPairDiv   isa.Op = isa.Op(isa.NumOps) + 8 + 6
	opPairRem   isa.Op = isa.Op(isa.NumOps) + 8 + 7
	opPairAnd   isa.Op = isa.Op(isa.NumOps) + 8 + 8
	opPairOr    isa.Op = isa.Op(isa.NumOps) + 8 + 9
	opPairXor   isa.Op = isa.Op(isa.NumOps) + 8 + 10
	opPairShl   isa.Op = isa.Op(isa.NumOps) + 8 + 11
	opPairShr   isa.Op = isa.Op(isa.NumOps) + 8 + 12
	opPairLoad  isa.Op = isa.Op(isa.NumOps) + 8 + 13
	opPairStore isa.Op = isa.Op(isa.NumOps) + 8 + 14
	opPairFadd  isa.Op = isa.Op(isa.NumOps) + 8 + 15
	opPairFmul  isa.Op = isa.Op(isa.NumOps) + 8 + 16
	opPairFdiv  isa.Op = isa.Op(isa.NumOps) + 8 + 17
	opPairFma   isa.Op = isa.Op(isa.NumOps) + 8 + 18
)

// pairPlain maps opPair opcodes (offset by opPairMov) back to the head's
// plain opcode, for event-mode execution and fusability checks.
var pairPlain = [...]isa.Op{
	isa.OpMov,
	isa.OpMovi,
	isa.OpAdd,
	isa.OpAddi,
	isa.OpSub,
	isa.OpMul,
	isa.OpDiv,
	isa.OpRem,
	isa.OpAnd,
	isa.OpOr,
	isa.OpXor,
	isa.OpShl,
	isa.OpShr,
	isa.OpLoad,
	isa.OpStore,
	isa.OpFadd,
	isa.OpFmul,
	isa.OpFdiv,
	isa.OpFma,
}

// unfuse maps a fused decode-time opcode back to the plain opcode of its
// head instruction.
func unfuse(op isa.Op) isa.Op {
	switch {
	case op >= opPairMov:
		return pairPlain[op-opPairMov]
	case op >= opCmpiJz:
		return isa.OpCmpi
	default:
		return isa.OpCmp
	}
}

func decodeProgram(p *program.Program) []fastInstr {
	code := make([]fastInstr, len(p.Code))
	for i := range p.Code {
		in := &p.Code[i]
		op := in.Op
		d := fastInstr{
			imm:  in.Imm,
			op:   op,
			dst:  uint8(in.Dst),
			src1: uint8(in.Src1),
			src2: uint8(in.Src2),
		}
		switch op {
		case isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJlt, isa.OpJge, isa.OpCall:
			d.imm = int64(in.Target)
		}
		if op.Valid() {
			d.lat = op.Latency()
			d.uops = op.Uops()
			var fl uint8
			if op.ReadsSrc1() {
				fl |= fReads1
			}
			if op.ReadsSrc2() {
				fl |= fReads2
			}
			if op.ReadsFlags() {
				fl |= fReadsF
			}
			if op.WritesDst() {
				fl |= fWrites
			}
			if op.SetsFlags() {
				fl |= fSetsF
			}
			if op.IsCondBranch() {
				fl |= fCond
			}
			d.fl = fl
		}
		code[i] = d
	}

	// Fusion pass: mark every instruction a control transfer can land on
	// (branch/call targets, return addresses, function entries), then fuse
	// each compare whose successor is an untargeted conditional branch.
	targeted := make([]bool, len(p.Code)+1)
	for i := range p.Code {
		in := &p.Code[i]
		switch in.Op {
		case isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJlt, isa.OpJge:
			if int(in.Target) < len(targeted) {
				targeted[in.Target] = true
			}
		case isa.OpCall:
			if int(in.Target) < len(targeted) {
				targeted[in.Target] = true
			}
			targeted[i+1] = true // a ret lands on the call's successor
		}
	}
	for _, f := range p.Funcs {
		if int(f.Start) < len(targeted) {
			targeted[f.Start] = true
		}
	}
	for i := 0; i+1 < len(code); {
		if targeted[i+1] {
			i++
			continue
		}
		head, second := code[i].op, code[i+1].op
		if head == isa.OpCmp || head == isa.OpCmpi {
			var fused isa.Op
			switch second {
			case isa.OpJz:
				fused = opCmpJz
			case isa.OpJnz:
				fused = opCmpJnz
			case isa.OpJlt:
				fused = opCmpJlt
			case isa.OpJge:
				fused = opCmpJge
			}
			if fused != 0 {
				if head == isa.OpCmpi {
					fused += opCmpiJz - opCmpJz
				}
				code[i].op = fused
				i += 2
				continue
			}
			i++
			continue
		}
		if hf, ok := pairHeadOp(head); ok && pairSecondOK(second) {
			code[i].op = hf
			i += 2
			continue
		}
		i++
	}
	return code
}

// regState is one architectural register's simulation state: its value and
// the cycle its last writer completes. Interleaving the two halves the
// cache lines the stride loop touches per operand.
type regState struct {
	val   int64
	ready uint64
}

// fastMem sizes the run's memory to the next power of two (at least one
// word) so address wrapping is a mask, exactly like the interpreter's
// state. Callers derive the mask as int64(len(mem)-1) so the bounds-check
// prover sees every masked index fit the slice.
func fastMem(p *program.Program) []int64 {
	memWords := 1
	for memWords < p.MemWords {
		memWords <<= 1
	}
	return make([]int64, memWords)
}

// predictUpdate is predict and update fused into one table access, used
// by the fast engine's stride loop (the interpreter keeps the two-step
// form; semantics are identical and the differential harness proves it).
func (pr *predictor) predictUpdate(pc uint32, taken bool) bool {
	// Mask against len(t)-1 (== pr.mask by construction in init) so the
	// prove pass elides the table bounds checks in the inlined hot loop;
	// the impossible empty-table guard gives it the len ≥ 1 fact it needs.
	t := pr.table
	if len(t) == 0 {
		return false
	}
	i := int(pc) & (len(t) - 1)
	c := t[i]
	if taken {
		if c < 3 {
			t[i] = c + 1
		}
	} else {
		if c > 0 {
			t[i] = c - 1
		}
	}
	return c >= 2
}

// RunFast executes p to completion under cfg, like Run, but advances in
// block-structured strides whenever mon (a FastMonitor) reports headroom:
// inside a stride no RetireEvents are built and no per-instruction monitor
// calls are made — retirement totals are flushed in bulk at observation
// boundaries, and the stride loop runs a per-opcode specialized body
// (operand readiness, latency and writeback folded into each case; taken
// branches handled at block terminators, appending to the monitor's LBR
// stream when it wants them). The engine drops to the generic
// per-instruction event path whenever the monitor demands it (for the PMU:
// counter within one block of overflow, armed PEBS capture window, pending
// imprecise PMI or displaced IBS tag; for the mux and the scheduler: a
// cycle deadline within the engine's horizon).
//
// Inside a stride the monitor is called only for the taken-branch stream,
// and only when it asks for one; every other monitor call happens at a
// flush boundary or in event mode.
//
// Functional semantics, the timing model, Result, the sample stream and
// error text are bit-identical to Run; the differential harness in this
// package and internal/sampling enforces it.
// Opcodes must be valid and register indices < isa.NumRegs —
// program.Validate checks both, and Build never produces anything else.
// The contract holds for validated programs only: on unvalidated garbage
// the engines may differ (both panic on invalid opcodes, but an
// out-of-range register panics the interpreter while the fast path's
// deliberately oversized register file reads phantom zeros).
//
// A monitor that does not implement FastMonitor falls back to Run.
func RunFast(p *program.Program, cfg Config, mon Monitor, maxInstrs uint64) (Result, error) {
	cfg = cfg.withDefaults()
	if maxInstrs == 0 {
		maxInstrs = 1 << 40
	}
	fm, ok := mon.(FastMonitor)
	if !ok {
		return Run(p, cfg, mon, maxInstrs)
	}
	return runFast(p, cfg, fm, maxInstrs)
}

// fastResult folds the hoisted counters back into a Result.
func fastResult(instrs, uops, cycles, taken, cond, mispred uint64) Result {
	return Result{
		Instructions:  instrs,
		Uops:          uops,
		Cycles:        cycles,
		TakenBranches: taken,
		CondBranches:  cond,
		Mispredicts:   mispred,
	}
}

// pairHeadOp returns the opPair opcode for a fusable pair head.
func pairHeadOp(op isa.Op) (isa.Op, bool) {
	for i, p := range pairPlain {
		if p == op {
			return opPairMov + isa.Op(i), true
		}
	}
	return 0, false
}

// pairSecondOK reports whether op may be glued as the second half of a
// pair: any fusable head class, or an unconditional jmp.
func pairSecondOK(op isa.Op) bool {
	if op == isa.OpJmp {
		return true
	}
	_, ok := pairHeadOp(op)
	return ok
}
