package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
)

// This file implements EngineCompiled: a block-lowering tier over the
// predecoded segCode stream. Each executed entry point is lazily lowered
// into a basic block of flat micro-ops (cop) — operands pre-masked to
// direct register indices, memory operands classified so they resolve
// through one of three cached segment views, the paper's canary
// prologue/epilogue sequences fused into single superinstructions — and
// the dispatcher (runCompiled) performs budget, cancellation, halt and
// segment checks once per block instead of once per step.
//
// The bit-identity contract with the interpreter is absolute: Insts,
// Cycles, coverage edges, crash errors (reason strings and unwrapped
// mem.Fault values), RDTSC reads and RDRAND draws must be indistinguishable
// from the per-step loop. The tier earns that two ways: anything it cannot
// prove safe (SYSCALL/HLT, cold offsets, fetch faults, a remaining budget
// smaller than the next block, self-modified segments) is executed by the
// ordinary Step path; and when a block exits early — a fault mid-block, or
// a store that rewrites the executing segment — the upfront block charge is
// unwound to the exact per-step state before the error is reported.

// Micro-op kinds. cBad (the zero value) marks opcodes the block tier does
// not lower; a cBad head ends lowering so the Step path executes the
// instruction with reference semantics.
const (
	cBad uint8 = iota
	cNop
	cPush
	cPop
	cMovRR
	cMovRI
	cLoad
	cStore
	cLdFS
	cStFS
	cLea
	cAddRR
	cAddRI
	cSubRR
	cSubRI
	cXorRR
	cXorFS
	cOrRR
	cAndRR
	cShlRI
	cShrRI
	cCmpRR
	cCmpRI
	cJmp
	cJe
	cJne
	cCall
	cCallR
	cRet
	cLeave
	cRdrand
	cRdfsbase
	cRdtsc
	cMovQX
	cMovHX
	cPunpckX
	cMovXQ
	cStX
	cLdX
	cAesenc
	cCmpX

	// Fused superinstructions for the canary sequences internal/cc emits
	// (the patterns Table V measures). Constituent boundaries are preserved
	// for coverage edges and fault unwinding.
	cFuseInstall  // ldfs r1, disp ; store r1, disp2(r2)
	cFuseCheck    // load r1, disp(r2) ; xorfs r1, disp2 ; je target
	cFuseXorCheck // xor r2, r1 ; xorfs r1, disp2 ; je target
)

// lowerKind maps an opcode to its micro-op kind. SYSCALL and HLT are
// deliberately absent (cBad): traps belong to the Step path, which is also
// what keeps fork-at-syscall and halt bookkeeping engine-identical.
var lowerKind = [isa.NumOps]uint8{
	isa.NOP:      cNop,
	isa.PUSH:     cPush,
	isa.POP:      cPop,
	isa.MOVRR:    cMovRR,
	isa.MOVRI:    cMovRI,
	isa.LOAD:     cLoad,
	isa.STORE:    cStore,
	isa.LDFS:     cLdFS,
	isa.STFS:     cStFS,
	isa.LEA:      cLea,
	isa.ADDRR:    cAddRR,
	isa.ADDRI:    cAddRI,
	isa.SUBRR:    cSubRR,
	isa.SUBRI:    cSubRI,
	isa.XORRR:    cXorRR,
	isa.XORFS:    cXorFS,
	isa.ORRR:     cOrRR,
	isa.ANDRR:    cAndRR,
	isa.SHLRI:    cShlRI,
	isa.SHRRI:    cShrRI,
	isa.CMPRR:    cCmpRR,
	isa.CMPRI:    cCmpRI,
	isa.JMP:      cJmp,
	isa.JE:       cJe,
	isa.JNE:      cJne,
	isa.CALL:     cCall,
	isa.CALLR:    cCallR,
	isa.RET:      cRet,
	isa.LEAVE:    cLeave,
	isa.RDRAND:   cRdrand,
	isa.RDFSBASE: cRdfsbase,
	isa.RDTSC:    cRdtsc,
	isa.MOVQX:    cMovQX,
	isa.MOVHX:    cMovHX,
	isa.PUNPCKX:  cPunpckX,
	isa.MOVXQ:    cMovXQ,
	isa.STX:      cStX,
	isa.LDX:      cLdX,
	isa.AESENC:   cAesenc,
	isa.CMPX:     cCmpX,
}

// Encoded lengths of the fused constituents, for reconstructing interior
// instruction addresses (coverage edges, fault RIPs) without storing them.
var (
	lenLDFS  = uint64(isa.LDFS.EncodedLen())
	lenLOAD  = uint64(isa.LOAD.EncodedLen())
	lenXORRR = uint64(isa.XORRR.EncodedLen())
	lenXORFS = uint64(isa.XORFS.EncodedLen())
)

// View-class slots: one cached direct memory window per operand class, so
// a canary epilogue's stack load and FS load do not evict each other.
const (
	vStack   = 0 // implicit RSP accesses and RBP/RSP-based frames
	vFS      = 1 // FS-segment (TLS canary words)
	vData    = 2 // everything else (globals, heap)
	numViews = 4 // one spare slot so masked indexing stays in range
)

// memView is one cached window over a segment's private backing bytes,
// acquired via mem.Space.View and retired when the space's sharing epoch
// moves. A miss (bounds or empty view) falls back to the Space accessors,
// which also produce the faults.
type memView struct {
	data []byte
	base uint64
}

func (v *memView) ru64(addr uint64) (uint64, bool) {
	off := addr - v.base
	if off >= uint64(len(v.data)) || off+8 > uint64(len(v.data)) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v.data[off:]), true
}

func (v *memView) wu64(addr, val uint64) bool {
	off := addr - v.base
	if off >= uint64(len(v.data)) || off+8 > uint64(len(v.data)) {
		return false
	}
	binary.LittleEndian.PutUint64(v.data[off:], val)
	return true
}

func (v *memView) r128(addr uint64) (lo, hi uint64, ok bool) {
	off := addr - v.base
	if off >= uint64(len(v.data)) || off+16 > uint64(len(v.data)) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v.data[off:]), binary.LittleEndian.Uint64(v.data[off+8:]), true
}

func (v *memView) w128(addr, lo, hi uint64) bool {
	off := addr - v.base
	if off >= uint64(len(v.data)) || off+16 > uint64(len(v.data)) {
		return false
	}
	binary.LittleEndian.PutUint64(v.data[off:], lo)
	binary.LittleEndian.PutUint64(v.data[off+8:], hi)
	return true
}

// acquireView refreshes the class slot with the window covering addr (or
// empties it when addr has no qualifying window).
func (c *CPU) acquireView(cls uint8, addr uint64) {
	data, base, ok := c.Mem.View(addr)
	if !ok {
		c.views[cls&3] = memView{}
		return
	}
	c.views[cls&3] = memView{data: data, base: base}
}

// viewClass assigns an instruction's memory operand to a view slot.
func viewClass(in isa.Inst) uint8 {
	switch in.Op.MemClass() {
	case isa.MemStack:
		return vStack
	case isa.MemFS:
		return vFS
	case isa.MemBase:
		if in.Base == isa.RBP || in.Base == isa.RSP {
			return vStack
		}
	}
	return vData
}

// cop is one lowered micro-op. sumN/sumCyc are running totals through this
// op from the block start; the early-exit paths use them to unwind the
// block-level charge to exact per-step counters.
type cop struct {
	kind uint8
	r1   uint8 // destination/source register, pre-masked
	r2   uint8 // source register or memory base register, pre-masked
	x1   uint8 // xmm register, pre-masked
	cls  uint8 // view-class slot of the memory operand
	n    uint8 // guest instructions this op retires (>1 for fused ops)

	disp  int32  // memory displacement of the (first) constituent
	disp2 int32  // second constituent's displacement (fused ops)
	cyc   uint32 // cycle cost of this op (sum over constituents)
	sumN  uint32 // guest insts retired through this op from block start

	imm    int64
	sumCyc uint64 // cycles charged through this op from block start
	pc     uint64 // guest address of the op's first instruction
	next   uint64 // fall-through address past the op's last instruction
	target uint64 // resolved branch target (branch kinds only)
}

// block is one lowered basic block. ninsts/cycles are the totals the
// dispatcher charges on entry; end is the resume RIP when the block falls
// off its last op (terminator ops set RIP themselves).
type block struct {
	ops    []cop
	ninsts uint64
	cycles uint64
	end    uint64
}

// segCompiled is the block tier over one segCode: lazily lowered blocks
// plus a per-offset index. It shares the segCode's lifetime, so generation
// bumps (self-modifying code) and fork cache sharing need no extra
// bookkeeping here.
type segCompiled struct {
	blocks []*block
	// blockIdx maps a byte offset to the block entered there: blockNone
	// (never attempted), blockCold (lowering declined — the Step path
	// executes from this offset), or an index into blocks.
	blockIdx []int32
}

const (
	blockNone int32 = -1
	blockCold int32 = -2
)

func newSegCompiled(size int) *segCompiled {
	comp := &segCompiled{blockIdx: make([]int32, size)}
	for i := range comp.blockIdx {
		comp.blockIdx[i] = blockNone
	}
	return comp
}

// peek returns the instruction the linear predecode scan placed at off, if
// any. Fusion candidates must be scan-contiguous: a fused successor is only
// accepted when it starts exactly where the previous constituent ends.
func peek(sc *segCode, off uint64) (isa.Inst, bool) {
	if off >= uint64(len(sc.idx)) || sc.idx[off] < 0 {
		return isa.Inst{}, false
	}
	return sc.insts[sc.idx[off]], true
}

// lower builds the basic block entered at byte offset entry, reading
// decoded instructions from sc (segBase is the owning segment's base
// address). It records the result in blockIdx and returns it: a block
// index, or blockCold when the entry cannot head a block (cold offset —
// including a jump into the interior of an instruction, fused or not — or
// a trap instruction).
func (comp *segCompiled) lower(sc *segCode, segBase, entry uint64) int32 {
	var (
		ops    []cop
		sumN   uint32
		sumCyc uint64
	)
	pos := entry
	done := false
	for !done {
		var ii int32 = -1
		if pos < uint64(len(sc.idx)) {
			ii = sc.idx[pos]
		}
		if ii < 0 {
			break // cold offset or segment end: the Step path takes over
		}
		in := sc.insts[ii]
		kind := lowerKind[in.Op]
		if kind == cBad {
			break // SYSCALL/HLT (or future unlowered op): Step executes it
		}
		pc := segBase + pos
		ln := uint64(in.Len())
		op := cop{
			kind: kind,
			r1:   uint8(in.R1) & 15,
			r2:   uint8(in.R2) & 15,
			x1:   uint8(in.X1) & 15,
			cls:  viewClass(in),
			n:    1,
			disp: in.Disp,
			cyc:  uint32(in.Op.Cycles()),
			imm:  in.Imm,
			pc:   pc,
			next: pc + ln,
		}
		switch in.Op.Shape() {
		case isa.ShapeRM, isa.ShapeXM:
			op.r2 = uint8(in.Base) & 15
		}
		switch in.Op {
		case isa.JMP, isa.JE, isa.JNE, isa.CALL:
			op.target = op.next + uint64(int64(in.Disp))
			done = true
		case isa.CALLR, isa.RET:
			done = true
		case isa.LDFS:
			// Canary install (every scheme's prologue): ldfs ; store.
			if nx, ok := peek(sc, pos+ln); ok && nx.Op == isa.STORE && nx.R1 == in.R1 {
				op.kind = cFuseInstall
				op.r2 = uint8(nx.Base) & 15
				op.cls = viewClass(nx)
				op.disp2 = nx.Disp
				op.n = 2
				op.cyc = uint32(in.Op.Cycles() + nx.Op.Cycles())
				op.next = pc + ln + uint64(nx.Len())
			}
		case isa.LOAD:
			// SSP/DynaGuard epilogue check: load ; xorfs ; je.
			if x, ok := peek(sc, pos+ln); ok && x.Op == isa.XORFS && x.R1 == in.R1 {
				if j, ok := peek(sc, pos+ln+uint64(x.Len())); ok && j.Op == isa.JE {
					op.kind = cFuseCheck
					op.r2 = uint8(in.Base) & 15
					op.disp2 = x.Disp
					op.n = 3
					op.cyc = uint32(in.Op.Cycles() + x.Op.Cycles() + j.Op.Cycles())
					op.next = pc + ln + uint64(x.Len()) + uint64(j.Len())
					op.target = op.next + uint64(int64(j.Disp))
					done = true
				}
			}
		case isa.XORRR:
			// P-SSP epilogue tail: xor ; xorfs ; je.
			if x, ok := peek(sc, pos+ln); ok && x.Op == isa.XORFS && x.R1 == in.R1 {
				if j, ok := peek(sc, pos+ln+uint64(x.Len())); ok && j.Op == isa.JE {
					op.kind = cFuseXorCheck
					op.disp2 = x.Disp
					op.n = 3
					op.cyc = uint32(in.Op.Cycles() + x.Op.Cycles() + j.Op.Cycles())
					op.next = pc + ln + uint64(x.Len()) + uint64(j.Len())
					op.target = op.next + uint64(int64(j.Disp))
					done = true
				}
			}
		}
		sumN += uint32(op.n)
		sumCyc += uint64(op.cyc)
		op.sumN = sumN
		op.sumCyc = sumCyc
		ops = append(ops, op)
		pos = op.next - segBase
	}
	if len(ops) == 0 {
		comp.blockIdx[entry] = blockCold
		return blockCold
	}
	blk := &block{ops: ops, ninsts: uint64(sumN), cycles: sumCyc, end: segBase + pos}
	idx := int32(len(comp.blocks))
	comp.blocks = append(comp.blocks, blk)
	comp.blockIdx[entry] = idx
	return idx
}

// blockAt resolves the block entered at the current RIP, lowering it on
// first execution. nil means the Step path must execute here: fetch fault,
// cold offset, or a trap-headed block. As a side effect it maintains the
// segment fast-path state (see execSegment) and retires stale memory views
// when the space's sharing epoch moved.
func (c *CPU) blockAt() *block {
	seg, err := c.execSegment()
	if err != nil {
		return nil // Step raises the engine-identical fetch fault
	}
	if ep := c.Mem.Epoch(); ep != c.viewEpoch {
		c.viewEpoch = ep
		c.views = [numViews]memView{}
	}
	sc := c.curCode
	if sc.comp == nil {
		sc.comp = newSegCompiled(len(sc.idx))
	}
	off := c.RIP - seg.Base
	bi := sc.comp.blockIdx[off]
	if bi == blockNone {
		bi = sc.comp.lower(sc, seg.Base, off)
	}
	if bi < 0 {
		return nil
	}
	return sc.comp.blocks[bi]
}

// runCompiled is RunContext's block dispatch loop for EngineCompiled. The
// ordering of the budget check, the cancellation poll and the halt check
// mirrors the per-step loop exactly (budget at the loop head, poll before
// the first instruction and then at the cancelCheckMask stride, halt
// inside the step), so classification of budget kills, cancellations and
// orderly halts is engine-independent.
func (c *CPU) runCompiled(ctx context.Context, maxInsts uint64) error {
	done := ctx.Done()
	var executed, nextPoll uint64
	for {
		if executed >= maxInsts {
			return c.crash(fmt.Sprintf("instruction budget %d exhausted", maxInsts), ErrBudget)
		}
		if done != nil && executed >= nextPoll {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			nextPoll = executed + cancelCheckMask + 1
		}
		if c.halted {
			return nil
		}
		blk := c.blockAt()
		if blk == nil || maxInsts-executed < blk.ninsts {
			// Trap head, cold offset, fetch fault, or a remaining budget
			// smaller than the block: one exact per-step instruction.
			switch err := c.Step(); {
			case err == nil:
				executed++
			case errors.Is(err, ErrHalted):
				return nil
			default:
				return err
			}
			continue
		}
		// The whole block fits in the remaining budget: charge it upfront.
		// Early exits inside execBlock unwind to exact per-step counters.
		c.Insts += blk.ninsts
		c.Cycles += blk.cycles
		n, err := c.execBlock(blk)
		executed += n
		if err != nil {
			return err
		}
	}
}

// blockFault unwinds the block-level charge to the exact per-step state at
// a fault inside op — k is the 1-based faulting constituent, pc its guest
// address — and reports the crash. Per-step semantics charge the faulting
// instruction before executing it, so constituent k stays counted.
func (c *CPU) blockFault(blk *block, op *cop, k uint8, pc uint64, reason string, cause error) (uint64, error) {
	consumed := uint64(op.sumN) - uint64(op.n) + uint64(k)
	cyc := op.sumCyc
	if op.n > 1 {
		// Fused constituents cost one cycle each, so the partial charge is
		// exactly k of the op's op.cyc cycles.
		cyc = op.sumCyc - uint64(op.cyc) + uint64(k)
	}
	c.Insts -= blk.ninsts - consumed
	c.Cycles -= blk.cycles - cyc
	c.RIP = pc
	return consumed, c.crash(reason, cause)
}

// blockExit leaves the block cleanly after op retired — used when a store
// rewrote the executing segment, which invalidates the remaining lowered
// ops. Counters are trimmed to the retired prefix; the dispatcher resumes
// at the fall-through address against the bumped generation.
func (c *CPU) blockExit(blk *block, op *cop) uint64 {
	c.Insts -= blk.ninsts - uint64(op.sumN)
	c.Cycles -= blk.cycles - op.sumCyc
	c.RIP = op.next
	return uint64(op.sumN)
}

// execBlock runs one lowered block whose full cost is already charged. It
// returns the guest instructions actually retired (== blk.ninsts unless the
// block exited early) and the terminal error, if any. RIP is only written
// at block exits: terminators, fall-off-the-end, faults, and self-modify
// bails — never between interior ops.
func (c *CPU) execBlock(blk *block) (uint64, error) {
	ops := blk.ops
	for i := range ops {
		op := &ops[i]
		if c.cov != nil {
			c.cov.record(c.covPrev, op.pc)
			c.covPrev = op.pc >> 1
		}
		switch op.kind {
		case cNop:

		case cPush:
			// Per-step semantics decrement RSP before the write; a fault
			// leaves it decremented.
			c.GPR[isa.RSP] -= 8
			addr := c.GPR[isa.RSP]
			if !c.views[vStack].wu64(addr, c.GPR[op.r1&15]) {
				if err := c.Mem.WriteU64(addr, c.GPR[op.r1&15]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "push fault", err)
				}
				c.acquireView(vStack, addr)
				if c.curSeg.Gen() != c.curGen {
					return c.blockExit(blk, op), nil
				}
			}
		case cPop:
			addr := c.GPR[isa.RSP]
			v, ok := c.views[vStack].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "pop fault", err)
				}
				c.acquireView(vStack, addr)
			}
			c.GPR[op.r1&15] = v
			c.GPR[isa.RSP] += 8

		case cMovRR:
			c.GPR[op.r1&15] = c.GPR[op.r2&15]
		case cMovRI:
			c.GPR[op.r1&15] = uint64(op.imm)
		case cLoad:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			v, ok := c.views[op.cls&3].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "load fault", err)
				}
				c.acquireView(op.cls, addr)
			}
			c.GPR[op.r1&15] = v
		case cStore:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			if !c.views[op.cls&3].wu64(addr, c.GPR[op.r1&15]) {
				if err := c.Mem.WriteU64(addr, c.GPR[op.r1&15]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "store fault", err)
				}
				c.acquireView(op.cls, addr)
				if c.curSeg.Gen() != c.curGen {
					return c.blockExit(blk, op), nil
				}
			}
		case cLdFS:
			addr := c.FSBase + uint64(int64(op.disp))
			v, ok := c.views[vFS].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "fs load fault", err)
				}
				c.acquireView(vFS, addr)
			}
			c.GPR[op.r1&15] = v
		case cStFS:
			addr := c.FSBase + uint64(int64(op.disp))
			if !c.views[vFS].wu64(addr, c.GPR[op.r1&15]) {
				if err := c.Mem.WriteU64(addr, c.GPR[op.r1&15]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "fs store fault", err)
				}
				c.acquireView(vFS, addr)
				if c.curSeg.Gen() != c.curGen {
					return c.blockExit(blk, op), nil
				}
			}
		case cLea:
			c.GPR[op.r1&15] = c.GPR[op.r2&15] + uint64(int64(op.disp))

		case cAddRR:
			c.GPR[op.r1&15] += c.GPR[op.r2&15]
		case cAddRI:
			c.GPR[op.r1&15] += uint64(op.imm)
		case cSubRR:
			c.GPR[op.r1&15] -= c.GPR[op.r2&15]
		case cSubRI:
			c.GPR[op.r1&15] -= uint64(op.imm)
		case cXorRR:
			c.GPR[op.r1&15] ^= c.GPR[op.r2&15]
			c.ZF = c.GPR[op.r1&15] == 0
		case cXorFS:
			addr := c.FSBase + uint64(int64(op.disp))
			v, ok := c.views[vFS].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "fs xor fault", err)
				}
				c.acquireView(vFS, addr)
			}
			c.GPR[op.r1&15] ^= v
			c.ZF = c.GPR[op.r1&15] == 0
		case cOrRR:
			c.GPR[op.r1&15] |= c.GPR[op.r2&15]
		case cAndRR:
			c.GPR[op.r1&15] &= c.GPR[op.r2&15]
		case cShlRI:
			c.GPR[op.r1&15] <<= uint(op.imm) & 63
		case cShrRI:
			c.GPR[op.r1&15] >>= uint(op.imm) & 63

		case cCmpRR:
			c.ZF = c.GPR[op.r1&15] == c.GPR[op.r2&15]
		case cCmpRI:
			c.ZF = c.GPR[op.r1&15] == uint64(op.imm)

		case cJmp:
			c.RIP = op.target
			return blk.ninsts, nil
		case cJe:
			if c.ZF {
				c.RIP = op.target
			} else {
				c.RIP = op.next
			}
			return blk.ninsts, nil
		case cJne:
			if !c.ZF {
				c.RIP = op.target
			} else {
				c.RIP = op.next
			}
			return blk.ninsts, nil

		case cCall, cCallR:
			c.GPR[isa.RSP] -= 8
			addr := c.GPR[isa.RSP]
			if !c.views[vStack].wu64(addr, op.next) {
				if err := c.Mem.WriteU64(addr, op.next); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "call push fault", err)
				}
				c.acquireView(vStack, addr)
				// Terminator: no self-modify bail needed, the block ends here
				// and the dispatcher re-checks the generation on re-entry.
			}
			if op.kind == cCall {
				c.RIP = op.target
			} else {
				c.RIP = c.GPR[op.r1&15]
			}
			return blk.ninsts, nil
		case cRet:
			addr := c.GPR[isa.RSP]
			v, ok := c.views[vStack].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "ret pop fault", err)
				}
				c.acquireView(vStack, addr)
			}
			c.GPR[isa.RSP] += 8
			c.RIP = v
			return blk.ninsts, nil
		case cLeave:
			// Per-step semantics set RSP=RBP before the pop; a fault leaves
			// RSP moved.
			c.GPR[isa.RSP] = c.GPR[isa.RBP]
			addr := c.GPR[isa.RSP]
			v, ok := c.views[vStack].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "leave pop fault", err)
				}
				c.acquireView(vStack, addr)
			}
			c.GPR[isa.RBP] = v
			c.GPR[isa.RSP] += 8

		case cRdrand:
			c.GPR[op.r1&15] = c.Rand.Uint64()
			c.CF = true
		case cRdfsbase:
			c.GPR[op.r1&15] = c.FSBase
		case cRdtsc:
			// The block's full cycle cost is charged upfront; per-step
			// semantics read the counter with only the prefix through this
			// op (its own 25 cycles included) applied.
			tsc := c.TSCBase + c.Cycles - (blk.cycles - op.sumCyc)
			c.GPR[isa.RAX] = tsc & 0xffffffff
			c.GPR[isa.RDX] = tsc >> 32

		case cMovQX:
			c.X[op.x1&15][0] = c.GPR[op.r1&15]
			c.X[op.x1&15][1] = 0
		case cMovHX:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			v, ok := c.views[op.cls&3].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "movhps fault", err)
				}
				c.acquireView(op.cls, addr)
			}
			c.X[op.x1&15][1] = v
		case cPunpckX:
			c.X[op.x1&15][1] = c.GPR[op.r1&15]
		case cMovXQ:
			c.GPR[op.r1&15] = c.X[op.x1&15][0]
		case cStX:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			lo, hi := c.X[op.x1&15][0], c.X[op.x1&15][1]
			if !c.views[op.cls&3].w128(addr, lo, hi) {
				var b [16]byte
				binary.LittleEndian.PutUint64(b[:8], lo)
				binary.LittleEndian.PutUint64(b[8:], hi)
				if err := c.Mem.Write(addr, b[:]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "movdqu store fault", err)
				}
				c.acquireView(op.cls, addr)
				if c.curSeg.Gen() != c.curGen {
					return c.blockExit(blk, op), nil
				}
			}
		case cLdX:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			lo, hi, ok := c.views[op.cls&3].r128(addr)
			if !ok {
				var b [16]byte
				if err := c.Mem.ReadInto(addr, b[:]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "movdqu load fault", err)
				}
				lo = binary.LittleEndian.Uint64(b[:8])
				hi = binary.LittleEndian.Uint64(b[8:])
				c.acquireView(op.cls, addr)
			}
			c.X[op.x1&15][0] = lo
			c.X[op.x1&15][1] = hi
		case cAesenc:
			if err := c.aesEncrypt(); err != nil {
				return c.blockFault(blk, op, 1, op.pc, "aes fault", err)
			}
		case cCmpX:
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			lo, hi, ok := c.views[op.cls&3].r128(addr)
			if !ok {
				var b [16]byte
				if err := c.Mem.ReadInto(addr, b[:]); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "cmpx fault", err)
				}
				lo = binary.LittleEndian.Uint64(b[:8])
				hi = binary.LittleEndian.Uint64(b[8:])
				c.acquireView(op.cls, addr)
			}
			c.ZF = lo == c.X[op.x1&15][0] && hi == c.X[op.x1&15][1]

		case cFuseInstall:
			// Constituent 1: ldfs r1, disp (edge recorded at the loop head).
			addr := c.FSBase + uint64(int64(op.disp))
			v, ok := c.views[vFS].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "fs load fault", err)
				}
				c.acquireView(vFS, addr)
			}
			c.GPR[op.r1&15] = v
			// Constituent 2: store r1, disp2(r2).
			pc2 := op.pc + lenLDFS
			if c.cov != nil {
				c.cov.record(c.covPrev, pc2)
				c.covPrev = pc2 >> 1
			}
			addr = c.GPR[op.r2&15] + uint64(int64(op.disp2))
			if !c.views[op.cls&3].wu64(addr, v) {
				if err := c.Mem.WriteU64(addr, v); err != nil {
					return c.blockFault(blk, op, 2, pc2, "store fault", err)
				}
				c.acquireView(op.cls, addr)
				if c.curSeg.Gen() != c.curGen {
					return c.blockExit(blk, op), nil
				}
			}

		case cFuseCheck:
			// Constituent 1: load r1, disp(r2).
			addr := c.GPR[op.r2&15] + uint64(int64(op.disp))
			acc, ok := c.views[op.cls&3].ru64(addr)
			if !ok {
				var err error
				if acc, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 1, op.pc, "load fault", err)
				}
				c.acquireView(op.cls, addr)
			}
			// Constituent 2: xorfs r1, disp2.
			pc2 := op.pc + lenLOAD
			if c.cov != nil {
				c.cov.record(c.covPrev, pc2)
				c.covPrev = pc2 >> 1
			}
			addr = c.FSBase + uint64(int64(op.disp2))
			v, ok := c.views[vFS].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					// The load retired before the xor faulted: r1 holds it,
					// ZF is untouched — exactly the per-step state.
					c.GPR[op.r1&15] = acc
					return c.blockFault(blk, op, 2, pc2, "fs xor fault", err)
				}
				c.acquireView(vFS, addr)
			}
			acc ^= v
			c.GPR[op.r1&15] = acc
			c.ZF = acc == 0
			// Constituent 3: je target (cannot fault).
			pc3 := pc2 + lenXORFS
			if c.cov != nil {
				c.cov.record(c.covPrev, pc3)
				c.covPrev = pc3 >> 1
			}
			if c.ZF {
				c.RIP = op.target
			} else {
				c.RIP = op.next
			}
			return blk.ninsts, nil

		case cFuseXorCheck:
			// Constituent 1: xor r2, r1 (architecturally sets ZF; the xorfs
			// below overwrites it — unless the xorfs faults, so set it now).
			acc := c.GPR[op.r1&15] ^ c.GPR[op.r2&15]
			c.GPR[op.r1&15] = acc
			c.ZF = acc == 0
			// Constituent 2: xorfs r1, disp2.
			pc2 := op.pc + lenXORRR
			if c.cov != nil {
				c.cov.record(c.covPrev, pc2)
				c.covPrev = pc2 >> 1
			}
			addr := c.FSBase + uint64(int64(op.disp2))
			v, ok := c.views[vFS].ru64(addr)
			if !ok {
				var err error
				if v, err = c.Mem.ReadU64(addr); err != nil {
					return c.blockFault(blk, op, 2, pc2, "fs xor fault", err)
				}
				c.acquireView(vFS, addr)
			}
			acc ^= v
			c.GPR[op.r1&15] = acc
			c.ZF = acc == 0
			// Constituent 3: je target (cannot fault).
			pc3 := pc2 + lenXORFS
			if c.cov != nil {
				c.cov.record(c.covPrev, pc3)
				c.covPrev = pc3 >> 1
			}
			if c.ZF {
				c.RIP = op.target
			} else {
				c.RIP = op.next
			}
			return blk.ninsts, nil

		default:
			// Unreachable: lowering never emits cBad blocks. Treated as an
			// engine defect, not a guest crash.
			c.RIP = op.pc
			return uint64(op.sumN) - uint64(op.n), c.crash("compiled dispatch: bad micro-op", nil)
		}
	}
	c.RIP = blk.end
	return blk.ninsts, nil
}
