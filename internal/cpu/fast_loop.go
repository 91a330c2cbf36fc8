package cpu

import (
	"fmt"

	"pmutrust/internal/isa"
	"pmutrust/internal/program"
)

// runFast is the fast engine's stride loop: it serves any FastMonitor —
// branch streams, every bulk class, adversarial headroom schedules. The
// Result-shaped bulk classes are flush-time deltas of the run counters;
// only the classes Result does not track (loads, stores, FP ops, calls,
// rets) cost an increment in the stride body.
func runFast(p *program.Program, cfg Config, fm FastMonitor, maxInstrs uint64) (Result, error) {
	code := decodeProgram(p)
	recordFused(fm, code)

	// Architectural state (mirrors state in engine.go). The register files
	// are sized 256 so uint8 operand indices never need a bounds check in
	// the stride loop; validated programs only touch the first NumRegs
	// entries.
	mem := fastMem(p)
	_ = mem[0] // fastMem returns at least one word; lets prove elide masked-index checks
	memMask := int64(len(mem) - 1)
	stack := make([]uint32, 0, 64)
	var rf [256]regState
	var flags int64
	var pred predictor
	pred.init(cfg.PredictorBits)

	// Timing and count state, hoisted to locals so the stride loop keeps
	// it in registers; folded into Result at the exit points.
	var flagsReady, dispCycle, retCycle, redirect uint64
	var dispCount, retCount int
	var instrs, uopsDone, takenBr, condBr, mispred uint64

	dw, rw := cfg.DispatchWidth, cfg.RetireWidth
	mispen, bubble := cfg.MispredictPenalty, cfg.TakenBranchBubble
	maxDepth := cfg.MaxCallDepth
	wantBr := fm.WantBranches()

	pc := int32(p.Funcs[0].Start)

	// Stride accounting: acc holds the non-Result bulk classes of the
	// unflushed stride; the Result-shaped classes are reconstructed at
	// flush time as deltas against the fl* snapshots (the counters at the
	// last flush or per-instruction delivery), so the stride body never
	// touches them.
	var acc BulkCounts
	var flInstrs, flUops, flTaken, flCond, flMispred uint64

	// Cold-path error state (call overflow / ret underflow), reached by
	// goto so the hot loop carries no error plumbing.
	var pendingErr error
	var nDone uint64 // instructions completed in the failing stride

	// The deadline fence: one stride-loop iteration retires at most a
	// fused pair, each retirement advancing the clock by at most
	// MaxRetireCyclesPerInstr, so iterations that start below
	// deadline − guard never retire at or past the deadline.
	guard := 2 * cfg.MaxRetireCyclesPerInstr()

	for {
		if instrs != flInstrs {
			acc.Instrs = instrs - flInstrs
			acc.Uops = uopsDone - flUops
			acc.TakenBranches = takenBr - flTaken
			acc.CondBranches = condBr - flCond
			acc.Mispredicts = mispred - flMispred
			fm.BulkRetire(acc)
			acc = BulkCounts{}
			flInstrs, flUops, flTaken, flCond, flMispred =
				instrs, uopsDone, takenBr, condBr, mispred
		}
		horizon := retCycle + guard
		grant, deadline := fm.FastHeadroom(horizon)

		if grant == 0 {
			// ---- event mode: one instruction, generic body, full event ----
			in := &code[pc]
			idx := uint32(pc)

			d := dispCycle
			if dispCount >= dw {
				d++
				dispCount = 0
			}
			if redirect > d {
				d = redirect
				dispCount = 0
			}
			dispCycle = d
			dispCount++

			ready := d
			fl := in.fl
			if fl&fReads1 != 0 {
				ready = max(ready, rf[in.src1].ready)
			}
			if fl&fReads2 != 0 {
				ready = max(ready, rf[in.src2].ready)
			}
			if fl&fReadsF != 0 {
				ready = max(ready, flagsReady)
			}
			complete := ready + uint64(in.lat)

			op := in.op
			if op >= opCmpJz {
				// Fused head: event mode executes it as its plain head
				// instruction; the glued successor follows as itself.
				op = unfuse(op)
			}

			var taken, halt bool
			var target int32
			next := pc + 1
			switch op {
			case isa.OpNop:
			case isa.OpMov:
				rf[in.dst].val = rf[in.src1].val
			case isa.OpMovi:
				rf[in.dst].val = in.imm
			case isa.OpAdd:
				rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
			case isa.OpAddi:
				rf[in.dst].val = rf[in.src1].val + in.imm
			case isa.OpSub:
				rf[in.dst].val = rf[in.src1].val - rf[in.src2].val
			case isa.OpMul:
				rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
			case isa.OpDiv:
				if v := rf[in.src2].val; v != 0 {
					rf[in.dst].val = rf[in.src1].val / v
				} else {
					rf[in.dst].val = 0
				}
			case isa.OpRem:
				if v := rf[in.src2].val; v != 0 {
					rf[in.dst].val = rf[in.src1].val % v
				} else {
					rf[in.dst].val = 0
				}
			case isa.OpAnd:
				rf[in.dst].val = rf[in.src1].val & rf[in.src2].val
			case isa.OpOr:
				rf[in.dst].val = rf[in.src1].val | rf[in.src2].val
			case isa.OpXor:
				rf[in.dst].val = rf[in.src1].val ^ rf[in.src2].val
			case isa.OpShl:
				rf[in.dst].val = rf[in.src1].val << uint(in.imm&63)
			case isa.OpShr:
				rf[in.dst].val = int64(uint64(rf[in.src1].val) >> uint(in.imm&63))
			case isa.OpLoad:
				rf[in.dst].val = mem[(rf[in.src1].val+in.imm)&memMask]
			case isa.OpStore:
				mem[(rf[in.src2].val+in.imm)&memMask] = rf[in.src1].val
			case isa.OpFadd:
				rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
			case isa.OpFmul:
				rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
			case isa.OpFdiv:
				if v := rf[in.src2].val; v != 0 {
					rf[in.dst].val = rf[in.src1].val / v
				} else {
					rf[in.dst].val = 0
				}
			case isa.OpFma:
				rf[in.dst].val += rf[in.src1].val * rf[in.src2].val
			case isa.OpCmp:
				flags = rf[in.src1].val - rf[in.src2].val
			case isa.OpCmpi:
				flags = rf[in.src1].val - in.imm
			case isa.OpJmp:
				taken, target, next = true, int32(in.imm), int32(in.imm)
			case isa.OpJz:
				if flags == 0 {
					taken, target, next = true, int32(in.imm), int32(in.imm)
				}
			case isa.OpJnz:
				if flags != 0 {
					taken, target, next = true, int32(in.imm), int32(in.imm)
				}
			case isa.OpJlt:
				if flags < 0 {
					taken, target, next = true, int32(in.imm), int32(in.imm)
				}
			case isa.OpJge:
				if flags >= 0 {
					taken, target, next = true, int32(in.imm), int32(in.imm)
				}
			case isa.OpCall:
				if len(stack) >= maxDepth {
					pendingErr = errCallOverflow(len(stack))
					nDone = 0
					goto fail
				}
				stack = append(stack, uint32(pc+1))
				taken, target, next = true, int32(in.imm), int32(in.imm)
			case isa.OpRet:
				if len(stack) == 0 {
					pendingErr = errEmptyRet
					nDone = 0
					goto fail
				}
				ra := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				taken, target, next = true, int32(ra), int32(ra)
			case isa.OpHalt:
				halt = true
			default:
				panic(fmt.Sprintf("cpu: invalid opcode %d at index %d", in.op, idx))
			}

			if fl&fWrites != 0 {
				rf[in.dst].ready = complete
			}
			if fl&fSetsF != 0 {
				flagsReady = complete
			}

			evMispred := false
			if fl&fCond != 0 {
				condBr++
				predTaken := pred.predictUpdate(idx, taken)
				if predTaken != taken {
					mispred++
					evMispred = true
					redirect = complete + mispen
				} else if taken {
					redirect = d + 1 + bubble
				}
			} else if taken {
				redirect = d + 1 + bubble
			}

			rc := complete
			if rc < retCycle {
				rc = retCycle
			}
			if rc == retCycle {
				if retCount >= rw {
					rc++
					retCount = 0
				}
			} else {
				retCount = 0
			}
			retCycle = rc
			retCount++

			instrs++
			uopsDone += uint64(in.uops)
			if taken {
				takenBr++
			}

			fm.OnRetire(RetireEvent{
				Idx:     idx,
				Cycle:   rc,
				Seq:     instrs,
				Op:      op,
				Uops:    in.uops,
				Taken:   taken,
				Mispred: evMispred,
				Target:  uint32(target),
			})
			// Delivered per-instruction: advance the flush snapshots so
			// the next bulk flush never re-counts this event.
			flInstrs, flUops, flTaken, flCond, flMispred =
				instrs, uopsDone, takenBr, condBr, mispred

			if halt {
				return fastResult(instrs, uopsDone, retCycle, takenBr, condBr, mispred), nil
			}
			if instrs >= maxInstrs {
				return fastResult(instrs, uopsDone, retCycle, takenBr, condBr, mispred), ErrInstrLimit
			}
			pc = next
			continue
		}

		// ---- stride mode: specialized per-opcode loop, no per-instruction
		// monitor calls; taken branches stream to the LBR only when the
		// monitor wants them. The stride ends when the grant is spent or
		// the clock reaches the fence, whichever comes first.
		{
			if deadline <= horizon {
				panic("cpu: FastHeadroom granted instructions with deadline ≤ horizon")
			}
			fence := deadline - guard
			n := grant
			if left := maxInstrs - instrs; n > left {
				n = left
			}
			halted := false

			i := n
			for ; i > 0 && retCycle < fence; i-- {
				in := &code[pc]

				d := dispCycle
				if dispCount >= dw {
					d++
					dispCount = 0
				}
				if redirect > d {
					d = redirect
					dispCount = 0
				}
				dispCycle = d
				dispCount++

				var complete uint64
				next := pc + 1
				switch in.op {
				case isa.OpNop:
					complete = d + uint64(in.lat)
				case isa.OpMov:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val
					rf[in.dst].ready = complete
				case isa.OpMovi:
					complete = d + uint64(in.lat)
					rf[in.dst].val = in.imm
					rf[in.dst].ready = complete
				case isa.OpAdd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpAddi:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + in.imm
					rf[in.dst].ready = complete
				case isa.OpSub:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val - rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpMul:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpDiv:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val / v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
				case isa.OpRem:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val % v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
				case isa.OpAnd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val & rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpOr:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val | rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpXor:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val ^ rf[in.src2].val
					rf[in.dst].ready = complete
				case isa.OpShl:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val << uint(in.imm&63)
					rf[in.dst].ready = complete
				case isa.OpShr:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = int64(uint64(rf[in.src1].val) >> uint(in.imm&63))
					rf[in.dst].ready = complete
				case isa.OpLoad:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = mem[(rf[in.src1].val+in.imm)&memMask]
					rf[in.dst].ready = complete
					acc.Loads++
				case isa.OpStore:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					mem[(rf[in.src2].val+in.imm)&memMask] = rf[in.src1].val
					acc.Stores++
				case isa.OpFadd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
				case isa.OpFmul:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
				case isa.OpFdiv:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val / v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
					acc.FPOps++
				case isa.OpFma:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val += rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
				case isa.OpCmp:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					flags = rf[in.src1].val - rf[in.src2].val
					flagsReady = complete
				case isa.OpCmpi:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					flags = rf[in.src1].val - in.imm
					flagsReady = complete
				case opCmpJz, opCmpJnz, opCmpJlt, opCmpJge, opCmpiJz, opCmpiJnz, opCmpiJlt, opCmpiJge:
					// Fused compare+branch: the compare retires here, then the
					// branch at pc+1 dispatches in the same iteration. The compare
					// already applied any pending redirect, so the branch dispatch
					// only needs the width rollover.
					op := in.op
					if op >= opCmpiJz {
						complete = max(d, rf[in.src1].ready) + uint64(in.lat)
						flags = rf[in.src1].val - in.imm
					} else {
						complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
						flags = rf[in.src1].val - rf[in.src2].val
					}
					flagsReady = complete
					uopsDone += uint64(in.uops)
					if complete > retCycle {
						retCycle = complete
						retCount = 1
					} else if retCount >= rw {
						retCycle++
						retCount = 1
					} else {
						retCount++
					}
					if i == 1 {
						// The grant ends at the compare; the branch runs at the
						// top of the next stride (or in event mode).
						pc++
						continue
					}
					i--
					jin := &code[pc+1]
					d2 := d
					if dispCount >= dw {
						d2++
						dispCount = 0
					}
					dispCycle = d2
					dispCount++
					complete = max(d2, flagsReady) + uint64(jin.lat)
					var taken bool
					switch op {
					case opCmpJz, opCmpiJz:
						taken = flags == 0
					case opCmpJnz, opCmpiJnz:
						taken = flags != 0
					case opCmpJlt, opCmpiJlt:
						taken = flags < 0
					default:
						taken = flags >= 0
					}
					condBr++
					idx := uint32(pc) + 1
					predTaken := pred.predictUpdate(idx, taken)
					if predTaken != taken {
						mispred++
						redirect = complete + mispen
					} else if taken {
						redirect = d2 + 1 + bubble
					}
					next = pc + 2
					if taken {
						next = int32(jin.imm)
						takenBr++
						if wantBr {
							fm.OnFastBranch(idx, uint32(jin.imm), jin.op)
						}
					}
					uopsDone += uint64(jin.uops)
					if complete > retCycle {
						retCycle = complete
						retCount = 1
					} else if retCount >= rw {
						retCycle++
						retCount = 1
					} else {
						retCount++
					}
					pc = next
					continue
				case isa.OpJmp:
					complete = d + uint64(in.lat)
					next = int32(in.imm)
					redirect = d + 1 + bubble
					takenBr++
					if wantBr {
						fm.OnFastBranch(uint32(pc), uint32(in.imm), in.op)
					}
				case isa.OpJz, isa.OpJnz, isa.OpJlt, isa.OpJge:
					complete = max(d, flagsReady) + uint64(in.lat)
					var taken bool
					switch in.op {
					case isa.OpJz:
						taken = flags == 0
					case isa.OpJnz:
						taken = flags != 0
					case isa.OpJlt:
						taken = flags < 0
					default:
						taken = flags >= 0
					}
					condBr++
					idx := uint32(pc)
					predTaken := pred.predictUpdate(idx, taken)
					if predTaken != taken {
						mispred++
						redirect = complete + mispen
					} else if taken {
						redirect = d + 1 + bubble
					}
					if taken {
						next = int32(in.imm)
						takenBr++
						if wantBr {
							fm.OnFastBranch(idx, uint32(in.imm), in.op)
						}
					}
				case isa.OpCall:
					complete = d + uint64(in.lat)
					if len(stack) >= maxDepth {
						pendingErr = errCallOverflow(len(stack))
						nDone = n - i
						goto fail
					}
					stack = append(stack, uint32(pc+1))
					next = int32(in.imm)
					redirect = d + 1 + bubble
					takenBr++
					acc.Calls++
					if wantBr {
						fm.OnFastBranch(uint32(pc), uint32(in.imm), in.op)
					}
				case isa.OpRet:
					complete = d + uint64(in.lat)
					if len(stack) == 0 {
						pendingErr = errEmptyRet
						nDone = n - i
						goto fail
					}
					ra := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					next = int32(ra)
					redirect = d + 1 + bubble
					takenBr++
					acc.Rets++
					if wantBr {
						fm.OnFastBranch(uint32(pc), ra, in.op)
					}
				case isa.OpHalt:
					complete = d + uint64(in.lat)
					uopsDone += uint64(in.uops)
					if complete > retCycle {
						retCycle = complete
						retCount = 1
					} else if retCount >= rw {
						retCycle++
						retCount = 1
					} else {
						retCount++
					}
					halted = true
					i-- // the halt retired
					goto strideDone
				case opPairMov:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairMovi:
					complete = d + uint64(in.lat)
					rf[in.dst].val = in.imm
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairAdd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairAddi:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + in.imm
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairSub:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val - rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairMul:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairDiv:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val / v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairRem:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val % v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairAnd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val & rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairOr:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val | rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairXor:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val ^ rf[in.src2].val
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairShl:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val << uint(in.imm&63)
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairShr:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = int64(uint64(rf[in.src1].val) >> uint(in.imm&63))
					rf[in.dst].ready = complete
					goto pairSecond
				case opPairFadd:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val + rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
					goto pairSecond
				case opPairFmul:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val = rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
					goto pairSecond
				case opPairFdiv:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					if v := rf[in.src2].val; v != 0 {
						rf[in.dst].val = rf[in.src1].val / v
					} else {
						rf[in.dst].val = 0
					}
					rf[in.dst].ready = complete
					acc.FPOps++
					goto pairSecond
				case opPairFma:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					rf[in.dst].val += rf[in.src1].val * rf[in.src2].val
					rf[in.dst].ready = complete
					acc.FPOps++
					goto pairSecond
				case opPairLoad:
					complete = max(d, rf[in.src1].ready) + uint64(in.lat)
					rf[in.dst].val = mem[(rf[in.src1].val+in.imm)&memMask]
					rf[in.dst].ready = complete
					acc.Loads++
					goto pairSecond
				case opPairStore:
					complete = max(d, rf[in.src1].ready, rf[in.src2].ready) + uint64(in.lat)
					mem[(rf[in.src2].val+in.imm)&memMask] = rf[in.src1].val
					acc.Stores++
					goto pairSecond
				default:
					panic(fmt.Sprintf("cpu: invalid opcode %d at index %d", in.op, pc))
				}

				uopsDone += uint64(in.uops)

				if complete > retCycle {
					retCycle = complete
					retCount = 1
				} else if retCount >= rw {
					retCycle++
					retCount = 1
				} else {
					retCount++
				}

				pc = next
				continue

			pairSecond:
				// Second half of a fused pair: retire the head, then dispatch
				// the glued instruction at pc+1 in the same iteration. The head
				// applied any pending redirect and set none itself, so the
				// glued dispatch only needs the width rollover.
				uopsDone += uint64(in.uops)
				if complete > retCycle {
					retCycle = complete
					retCount = 1
				} else if retCount >= rw {
					retCycle++
					retCount = 1
				} else {
					retCount++
				}
				if i == 1 {
					// The grant ends at the head; the glued instruction runs
					// at the top of the next stride (or in event mode).
					pc++
					continue
				}
				i--
				jin := &code[pc+1]
				d2 := d
				if dispCount >= dw {
					d2++
					dispCount = 0
				}
				dispCycle = d2
				dispCount++
				next = pc + 2
				switch jin.op {
				case isa.OpMov:
					complete = max(d2, rf[jin.src1].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val
					rf[jin.dst].ready = complete
				case isa.OpMovi:
					complete = d2 + uint64(jin.lat)
					rf[jin.dst].val = jin.imm
					rf[jin.dst].ready = complete
				case isa.OpAdd:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val + rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpAddi:
					complete = max(d2, rf[jin.src1].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val + jin.imm
					rf[jin.dst].ready = complete
				case isa.OpSub:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val - rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpMul:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val * rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpDiv:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					if v := rf[jin.src2].val; v != 0 {
						rf[jin.dst].val = rf[jin.src1].val / v
					} else {
						rf[jin.dst].val = 0
					}
					rf[jin.dst].ready = complete
				case isa.OpRem:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					if v := rf[jin.src2].val; v != 0 {
						rf[jin.dst].val = rf[jin.src1].val % v
					} else {
						rf[jin.dst].val = 0
					}
					rf[jin.dst].ready = complete
				case isa.OpAnd:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val & rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpOr:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val | rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpXor:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val ^ rf[jin.src2].val
					rf[jin.dst].ready = complete
				case isa.OpShl:
					complete = max(d2, rf[jin.src1].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val << uint(jin.imm&63)
					rf[jin.dst].ready = complete
				case isa.OpShr:
					complete = max(d2, rf[jin.src1].ready) + uint64(jin.lat)
					rf[jin.dst].val = int64(uint64(rf[jin.src1].val) >> uint(jin.imm&63))
					rf[jin.dst].ready = complete
				case isa.OpFadd:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val + rf[jin.src2].val
					rf[jin.dst].ready = complete
					acc.FPOps++
				case isa.OpFmul:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val = rf[jin.src1].val * rf[jin.src2].val
					rf[jin.dst].ready = complete
					acc.FPOps++
				case isa.OpFdiv:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					if v := rf[jin.src2].val; v != 0 {
						rf[jin.dst].val = rf[jin.src1].val / v
					} else {
						rf[jin.dst].val = 0
					}
					rf[jin.dst].ready = complete
					acc.FPOps++
				case isa.OpFma:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					rf[jin.dst].val += rf[jin.src1].val * rf[jin.src2].val
					rf[jin.dst].ready = complete
					acc.FPOps++
				case isa.OpLoad:
					complete = max(d2, rf[jin.src1].ready) + uint64(jin.lat)
					rf[jin.dst].val = mem[(rf[jin.src1].val+jin.imm)&memMask]
					rf[jin.dst].ready = complete
					acc.Loads++
				case isa.OpStore:
					complete = max(d2, rf[jin.src1].ready, rf[jin.src2].ready) + uint64(jin.lat)
					mem[(rf[jin.src2].val+jin.imm)&memMask] = rf[jin.src1].val
					acc.Stores++
				case isa.OpJmp:
					complete = d2 + uint64(jin.lat)
					next = int32(jin.imm)
					redirect = d2 + 1 + bubble
					takenBr++
					if wantBr {
						fm.OnFastBranch(uint32(pc)+1, uint32(jin.imm), jin.op)
					}
				default:
					panic(fmt.Sprintf("cpu: unfusable glued opcode %d at index %d", jin.op, pc+1))
				}
				uopsDone += uint64(jin.uops)
				if complete > retCycle {
					retCycle = complete
					retCount = 1
				} else if retCount >= rw {
					retCycle++
					retCount = 1
				} else {
					retCount++
				}
				pc = next
			}
		strideDone:

			instrs += n - i
			if halted || instrs >= maxInstrs {
				acc.Instrs = instrs - flInstrs
				acc.Uops = uopsDone - flUops
				acc.TakenBranches = takenBr - flTaken
				acc.CondBranches = condBr - flCond
				acc.Mispredicts = mispred - flMispred
				fm.BulkRetire(acc)
				res := fastResult(instrs, uopsDone, retCycle, takenBr, condBr, mispred)
				if halted {
					return res, nil
				}
				return res, ErrInstrLimit
			}
		}
		continue

	fail:
		// A call/ret fault aborts the run before the faulting instruction
		// retires (matching the interpreter): account the stride's
		// completed prefix, flush, and wrap the error exactly as Run does.
		instrs += nDone
		if instrs != flInstrs {
			acc.Instrs = instrs - flInstrs
			acc.Uops = uopsDone - flUops
			acc.TakenBranches = takenBr - flTaken
			acc.CondBranches = condBr - flCond
			acc.Mispredicts = mispred - flMispred
			fm.BulkRetire(acc)
		}
		return fastResult(instrs, uopsDone, retCycle, takenBr, condBr, mispred),
			runErr(uint32(pc), &p.Code[pc], pendingErr)
	}
}
