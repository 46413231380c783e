package vm

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Engine selects how the CPU turns memory bytes into executed instructions.
type Engine uint8

// Engines. The zero value is EngineCompiled, so CPUs default to the
// block-lowered tier everywhere; the interpreter stays selectable as the
// reference semantics for differential testing (see pssp.WithEngine).
const (
	// EngineCompiled decodes each executable segment once into a code cache
	// of []isa.Inst plus a PC→instruction table, then lowers it, lazily and
	// per entry point, into basic blocks of flat pre-resolved micro-ops (see
	// compile.go): operands are direct register indices, memory operands go
	// through cached segment views that skip the per-access segment walk,
	// the canary prologue/epilogue sequences fuse into superinstructions,
	// and budget/cycle/cancellation checks run once per block instead of
	// per step. The cache is shared read-only across forked children (fork
	// copies the CPU, and copy-on-write memory keeps the backing code bytes
	// shared) and is invalidated by the segment generation counter when
	// executable bytes change. Anything the block tier cannot prove safe
	// (traps, cold offsets, self-modified segments, instrumented runs, the
	// sub-block budget tail) falls back to the per-step path over the same
	// cache, keeping all observable state bit-identical to the interpreter.
	EngineCompiled Engine = iota
	// EngineInterpreter re-fetches and re-decodes from segment bytes on
	// every step — the original execution model, kept as the reference
	// semantics the compiled engine is differentially tested against.
	EngineInterpreter
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineInterpreter:
		return "interpreter"
	default:
		return "engine?"
	}
}

// fetchWindow mirrors the interpreter's Fetch(rip, 16): up to 16 bytes
// starting at off, short at the end of the segment. Decoding through the
// same window keeps the two engines' error values bit-identical (including
// the "truncated" byte counts in decode failures).
func fetchWindow(data []byte, off int) []byte {
	end := off + 16
	if end > len(data) {
		end = len(data)
	}
	return data[off:end]
}

// segCode is the predecoded form of one executable segment at one content
// generation. Staleness is detected by the CodeCache map key (backing-array
// identity) plus gen; the struct holds no segment reference of its own.
type segCode struct {
	gen uint64
	// insts is the decoded instruction stream, in the order a linear scan
	// from the segment start discovers it.
	insts []isa.Inst
	// idx maps a byte offset to its index in insts, or -1 when the offset
	// was not reached by the scan (the interior of an instruction, or bytes
	// that do not decode). Executing at such an offset falls back to direct
	// decoding, preserving exact interpreter semantics for mid-instruction
	// jumps and illegal bytes.
	idx []int32
	// comp is the compiled engine's block-lowered tier over this predecode,
	// built lazily on first compiled execution (see compile.go). Hanging it
	// here means blocks share the predecode cache's invalidation — a
	// generation bump discards the segCode and the blocks with it — and ride
	// to forked children through the shared CodeCache.
	comp *segCompiled
}

// predecode scans the segment once, decoding every instruction reachable by
// linear fall-through. Undecodable bytes are skipped one at a time so that
// code after an embedded data island is still predecoded.
func predecode(seg *mem.Segment) *segCode {
	data := seg.Data
	sc := &segCode{gen: seg.Gen(), idx: make([]int32, len(data))}
	for i := range sc.idx {
		sc.idx[i] = -1
	}
	sc.insts = make([]isa.Inst, 0, len(data)/4)
	for off := 0; off < len(data); {
		in, n, err := isa.Decode(fetchWindow(data, off), 0)
		if err != nil {
			off++ // resync: leave the offset cold, keep scanning
			continue
		}
		sc.idx[off] = int32(len(sc.insts))
		sc.insts = append(sc.insts, in)
		off += n
	}
	return sc
}

// CodeCache holds predecoded segments keyed by the identity of their backing
// arrays. Keying by backing identity (not by *Segment) is what lets a forked
// child reuse its parent's decode work: copy-on-write cloning hands the
// child segment the same backing array, so the lookup hits until someone
// writes to the segment — and a write to executable bytes also bumps the
// generation, which forces a re-decode.
type CodeCache struct {
	segs map[*byte]*segCode
}

// NewCodeCache returns an empty cache.
func NewCodeCache() *CodeCache { return &CodeCache{segs: make(map[*byte]*segCode)} }

// forSegment returns the predecoded form of seg, building or rebuilding it
// if the cache has none for seg's backing array at seg's current generation.
func (cc *CodeCache) forSegment(seg *mem.Segment) *segCode {
	key := &seg.Data[0]
	sc := cc.segs[key]
	if sc == nil || sc.gen != seg.Gen() {
		sc = predecode(seg)
		cc.segs[key] = sc
	}
	return sc
}

// execSegment resolves the executable segment at RIP and its predecoded
// form, refreshing the per-CPU (curSeg, curGen, curCode) triple that
// short-circuits the lookup while execution stays inside one segment, which
// it almost always does. The error is ExecSegment's, unshaped.
func (c *CPU) execSegment() (*mem.Segment, error) {
	seg := c.curSeg
	if seg != nil && c.RIP >= seg.Base && c.RIP < seg.End() && seg.Gen() == c.curGen {
		return seg, nil
	}
	seg, err := c.Mem.ExecSegment(c.RIP)
	if err != nil {
		return nil, err
	}
	if c.code == nil {
		c.code = NewCodeCache()
	}
	c.curSeg = seg
	c.curGen = seg.Gen()
	c.curCode = c.code.forSegment(seg)
	return seg, nil
}

// fetchPredecoded resolves the instruction at RIP through the code cache.
func (c *CPU) fetchPredecoded() (isa.Inst, int, error) {
	seg, err := c.execSegment()
	if err != nil {
		// Report the same 16-byte-window fault the interpreter's
		// Fetch(rip, 16) raises, so unwrapped mem.Fault values stay
		// bit-identical across engines.
		if f, ok := err.(*mem.Fault); ok {
			f.Size = 16
		}
		return isa.Inst{}, 0, c.crash("instruction fetch fault", err)
	}
	off := c.RIP - seg.Base
	if i := c.curCode.idx[off]; i >= 0 {
		in := c.curCode.insts[i]
		return in, in.Len(), nil
	}
	// Cold offset: decode straight from the (current) segment bytes, exactly
	// as the interpreter would. Not cached — the result may be a jump into
	// the middle of an instruction, and staying cold keeps the shared cache
	// immutable after construction.
	in, n, err := isa.Decode(fetchWindow(seg.Data, int(off)), 0)
	if err != nil {
		return isa.Inst{}, 0, c.crash("illegal instruction", err)
	}
	return in, n, nil
}

// SetMem rebinds the CPU to a new address space and drops the per-CPU
// decode state, which is keyed to the old space's segments. The kernel's
// fork uses this when pointing a copied CPU at the child's cloned space;
// the CodeCache itself is kept — child and parent share it read-only.
func (c *CPU) SetMem(m *mem.Space) {
	c.Mem = m
	c.curSeg = nil
	c.curGen = 0
	c.curCode = nil
	// Direct memory views alias the old space's buffers; a forked child must
	// not write through them. They re-acquire lazily against the new space.
	c.views = [numViews]memView{}
	c.viewEpoch = 0
}
