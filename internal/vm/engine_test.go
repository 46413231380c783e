package vm

import (
	"context"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// buildEngineCPU is buildCPU with an explicit engine.
func buildEngineCPU(t *testing.T, e Engine, prog []isa.Inst) *CPU {
	t.Helper()
	c := buildCPU(t, prog)
	c.Engine = e
	return c
}

// snapshot captures the architectural state the two engines must agree on.
type snapshot struct {
	GPR    [isa.NumGPR]uint64
	X      [isa.NumXMM][2]uint64
	RIP    uint64
	ZF, CF bool
	Cycles uint64
	Insts  uint64
}

func snap(c *CPU) snapshot {
	return snapshot{GPR: c.GPR, X: c.X, RIP: c.RIP, ZF: c.ZF, CF: c.CF, Cycles: c.Cycles, Insts: c.Insts}
}

// engineArm is one column of the differential matrix: an engine plus the
// loop that drives it.
type engineArm struct {
	name   string
	engine Engine
	// steps drives the CPU through the per-step loop (the path instrumented
	// runs take) instead of Run's dispatcher.
	steps bool
}

func (a engineArm) String() string { return a.name }

// run executes c to halt, crash or budget exhaustion through the arm's loop.
func (a engineArm) run(c *CPU, maxInsts uint64) error {
	if a.steps {
		return c.runSteps(context.Background(), maxInsts)
	}
	return c.Run(maxInsts)
}

// allEngines is the full differential matrix; index 0 is the reference the
// others are compared against. The compiled engine runs twice: through the
// block dispatcher, and one Step at a time through the code cache.
var allEngines = []engineArm{
	{"interpreter", EngineInterpreter, false},
	{"compiled", EngineCompiled, false},
	{"compiled-per-step", EngineCompiled, true},
}

// diffEngines builds one CPU per arm via build, runs each to completion
// (or error), and asserts bit-identical final state and identical error
// shape, returning the reference outcome.
func diffEngines(t *testing.T, maxInsts uint64, build func(t *testing.T, e Engine) *CPU) (snapshot, error) {
	t.Helper()
	ref := build(t, allEngines[0].engine)
	refErr := allEngines[0].run(ref, maxInsts)
	for _, e := range allEngines[1:] {
		c := build(t, e.engine)
		cErr := e.run(c, maxInsts)
		if a, b := snap(ref), snap(c); a != b {
			t.Fatalf("engines diverged:\n%s: %+v\n%s: %+v", allEngines[0], a, e, b)
		}
		switch {
		case refErr == nil && cErr == nil:
		case refErr == nil || cErr == nil:
			t.Fatalf("engines disagree on error: %s=%v %s=%v", allEngines[0], refErr, e, cErr)
		default:
			if refErr.Error() != cErr.Error() {
				t.Fatalf("engines disagree on error text:\n%s: %v\n%s: %v", allEngines[0], refErr, e, cErr)
			}
			// The unwrapped faults must be bit-identical too, not just the
			// CrashError surface (which omits the cause).
			var rf, cf *mem.Fault
			if errors.As(refErr, &rf) != errors.As(cErr, &cf) {
				t.Fatalf("engines disagree on fault presence: %s=%v %s=%v", allEngines[0], refErr, e, cErr)
			}
			if rf != nil && *rf != *cf {
				t.Fatalf("engines disagree on fault detail:\n%s: %+v\n%s: %+v", allEngines[0], *rf, e, *cf)
			}
		}
	}
	return snap(ref), refErr
}

// runAllEngines executes the program under every arm and asserts
// bit-identical final state and identical error shape.
func runAllEngines(t *testing.T, prog []isa.Inst, maxInsts uint64) (snapshot, error) {
	t.Helper()
	return diffEngines(t, maxInsts, func(t *testing.T, e Engine) *CPU { return buildEngineCPU(t, e, prog) })
}

func TestEnginesAgreeOnStraightLineCode(t *testing.T) {
	_, err := runAllEngines(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 10},
		{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
		{Op: isa.STORE, R1: isa.RAX, Base: isa.RBX, Disp: 8},
		{Op: isa.LOAD, R1: isa.RCX, Base: isa.RBX, Disp: 8},
		{Op: isa.ADDRR, R1: isa.RAX, R2: isa.RCX},
		{Op: isa.PUSH, R1: isa.RAX},
		{Op: isa.POP, R1: isa.RDX},
		{Op: isa.HLT},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnginesAgreeOnBranchyLoop(t *testing.T) {
	// Sum 1..100 with a backward JNE.
	body := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0},
		{Op: isa.MOVRI, R1: isa.RCX, Imm: 100},
		{Op: isa.ADDRR, R1: isa.RAX, R2: isa.RCX}, // loop:
		{Op: isa.SUBRI, R1: isa.RCX, Imm: 1},
		{Op: isa.CMPRI, R1: isa.RCX, Imm: 0},
	}
	back := isa.Inst{Op: isa.JNE}
	back.Disp = int32(-(body[2].Len() + body[3].Len() + body[4].Len() + back.Len()))
	prog := append(body, back, isa.Inst{Op: isa.HLT})
	st, err := runAllEngines(t, prog, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.GPR[isa.RAX] != 5050 {
		t.Fatalf("sum = %d, want 5050", st.GPR[isa.RAX])
	}
}

func TestEnginesAgreeOnCrash(t *testing.T) {
	_, err := runAllEngines(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 0x100}, // unmapped
		{Op: isa.LOAD, R1: isa.RAX, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	}, 100)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want CrashError from both engines, got %v", err)
	}
}

func TestEnginesAgreeOnFetchFault(t *testing.T) {
	// Jump into unmapped memory: both engines must raise the same
	// instruction-fetch fault, including the fault's window size.
	_, err := runAllEngines(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x100},
		{Op: isa.CALLR, R1: isa.RAX},
	}, 100)
	var fault *mem.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("want mem.Fault, got %v", err)
	}
	if !fault.Exec {
		t.Fatalf("fault not marked exec: %+v", fault)
	}
}

func TestEnginesAgreeOnIllegalInstruction(t *testing.T) {
	for _, a := range allEngines {
		t.Run(a.name, func(t *testing.T) {
			sp := mem.NewSpace()
			if _, err := sp.Map("text", mem.TextBase, 16, mem.PermRead|mem.PermExec); err != nil {
				t.Fatal(err)
			}
			sp.Segment("text").Data[0] = 0xee
			c := New(sp, rng.New(1))
			c.Engine = a.engine
			c.RIP = mem.TextBase
			var crash *CrashError
			if err := c.Step(); !errors.As(err, &crash) {
				t.Fatalf("expected crash on illegal opcode, got %v", err)
			}
		})
	}
}

func TestEnginesAgreeOnBudgetExhaustion(t *testing.T) {
	self := isa.Inst{Op: isa.JMP}
	self.Disp = int32(-self.Len())
	_, err := runAllEngines(t, []isa.Inst{self}, 50)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budget kill does not wrap ErrBudget: %v", err)
	}
}

func TestPredecodedMidInstructionJump(t *testing.T) {
	// Jump into the immediate bytes of a MOVRI. The interpreter decodes
	// whatever is there; the code cache must fall back and agree.
	// The immediate encodes a valid NOP+HLT stream when executed.
	imm := int64(isa.NOP) | int64(isa.NOP)<<8 | int64(isa.HLT)<<16 | int64(isa.NOP)<<24 |
		int64(isa.NOP)<<32 | int64(isa.NOP)<<40 | int64(isa.NOP)<<48 | int64(isa.NOP)<<56
	mov := isa.Inst{Op: isa.MOVRI, R1: isa.RAX, Imm: imm}
	// JMP back into mov's immediate field: opcode byte + reg byte = 2 bytes in.
	back := isa.Inst{Op: isa.JMP}
	back.Disp = int32(-(mov.Len() + back.Len()) + 2)
	prog := []isa.Inst{mov, back}
	st, err := runAllEngines(t, prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts == 0 {
		t.Fatal("no instructions executed")
	}
}

func TestPredecodedResyncPastDataIsland(t *testing.T) {
	// An undecodable data island embedded between two valid instruction
	// runs: the linear predecode scan must resync one byte at a time and
	// still cache the code after the island, and a jump over the island must
	// execute identically under every engine.
	sp := mem.NewSpace()
	if _, err := sp.Map("text", mem.TextBase, 0x100, mem.PermRead|mem.PermExec); err != nil {
		t.Fatal(err)
	}
	head := isa.EncodeAll([]isa.Inst{{Op: isa.MOVRI, R1: isa.RAX, Imm: 5}})
	tail := isa.EncodeAll([]isa.Inst{
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 2},
		{Op: isa.HLT},
	})
	island := []byte{0xee, 0xee, 0xee} // no such opcode
	jmp := isa.Inst{Op: isa.JMP}
	jmp.Disp = int32(len(island))
	code := append(append(append(head, isa.EncodeAll([]isa.Inst{jmp})...), island...), tail...)
	if err := sp.Segment("text").CopyIn(0, code); err != nil {
		t.Fatal(err)
	}

	run := func(e Engine) *CPU {
		t.Helper()
		c := New(sp, rng.New(1))
		c.Engine = e
		c.RIP = mem.TextBase
		if err := c.Run(100); err != nil {
			t.Fatal(err)
		}
		return c
	}
	pre, itp := run(EngineCompiled), run(EngineInterpreter)
	if a, b := snap(pre), snap(itp); a != b {
		t.Fatalf("engines diverged over data island:\ncompiled:    %+v\ninterpreter: %+v", a, b)
	}
	if pre.GPR[isa.RAX] != 7 {
		t.Fatalf("rax = %d, want 7", pre.GPR[isa.RAX])
	}
	// The resync must have predecoded the post-island instructions: their
	// offsets are warm in the index, the island bytes stay cold.
	sc := pre.code.forSegment(sp.Segment("text"))
	tailOff := len(head) + jmp.Len() + len(island)
	if sc.idx[tailOff] < 0 {
		t.Fatalf("post-island offset %d not predecoded (resync failed)", tailOff)
	}
	for i := 0; i < len(island); i++ {
		if sc.idx[len(head)+jmp.Len()+i] >= 0 {
			t.Fatalf("island byte %d was predecoded", i)
		}
	}
}

func TestColdOffsetFallbackMatchesDirectDecode(t *testing.T) {
	// Jumping into the interior of a predecoded instruction must decode the
	// same bytes the interpreter would — directly from segment memory — and
	// leave the shared cache untouched (cold offsets are never cached).
	imm := int64(isa.NOP) | int64(isa.HLT)<<8
	prog := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: imm},
		{Op: isa.HLT},
	}
	pre := buildEngineCPU(t, EngineCompiled, prog)
	if err := pre.Run(10); err != nil {
		t.Fatal(err)
	}
	sc := pre.curCode
	before := len(sc.insts)

	// Resume inside MOVRI's immediate field (2 header bytes in): the bytes
	// there decode as NOP, HLT.
	restart := func(c *CPU) {
		c.RIP = mem.TextBase + 2
		c.halted = false
	}
	restart(pre)
	if err := pre.Run(10); err != nil {
		t.Fatal(err)
	}
	itp := buildEngineCPU(t, EngineInterpreter, prog)
	if err := itp.Run(10); err != nil {
		t.Fatal(err)
	}
	restart(itp)
	if err := itp.Run(10); err != nil {
		t.Fatal(err)
	}
	if a, b := snap(pre), snap(itp); a != b {
		t.Fatalf("cold-offset fallback diverged:\ncompiled:    %+v\ninterpreter: %+v", a, b)
	}
	if got := len(sc.insts); got != before {
		t.Fatalf("cold-offset execution grew the shared cache: %d -> %d insts", before, got)
	}
}

func TestCOWWriteToExecSegmentInvalidatesChildOnly(t *testing.T) {
	// Fork semantics for the code cache: after a COW clone, a write to the
	// child's exec segment must bump the child's generation and re-decode
	// its code, while the parent — whose bytes did not change — keeps
	// executing its original (cached) program.
	sp := mem.NewSpace()
	if _, err := sp.Map("jit", mem.TextBase, 0x100, mem.PermRead|mem.PermWrite|mem.PermExec); err != nil {
		t.Fatal(err)
	}
	prog := isa.EncodeAll([]isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.HLT},
	})
	if err := sp.Segment("jit").CopyIn(0, prog); err != nil {
		t.Fatal(err)
	}
	parent := New(sp, rng.New(1))
	parent.RIP = mem.TextBase
	if err := parent.Run(10); err != nil {
		t.Fatal(err)
	}
	if parent.GPR[isa.RAX] != 1 {
		t.Fatalf("parent rax = %d, want 1", parent.GPR[isa.RAX])
	}

	childSpace := sp.Clone()
	child := new(CPU)
	*child = *parent
	child.SetMem(childSpace)
	// Guest-visible store into the child's exec segment: materializes the
	// COW copy and bumps the child segment's generation.
	parentGen := sp.Segment("jit").Gen()
	if err := childSpace.WriteU64(mem.TextBase+2, 42); err != nil {
		t.Fatal(err)
	}
	if childSpace.Segment("jit").Gen() == parentGen {
		t.Fatal("COW write did not bump the child's exec generation")
	}
	if sp.Segment("jit").Gen() != parentGen {
		t.Fatal("COW write leaked a generation bump into the parent")
	}

	child.RIP = mem.TextBase
	child.halted = false
	if err := child.Run(10); err != nil {
		t.Fatal(err)
	}
	if child.GPR[isa.RAX] != 42 {
		t.Fatalf("child rax = %d, want 42 (stale decode reused after COW write)", child.GPR[isa.RAX])
	}

	parent.RIP = mem.TextBase
	parent.halted = false
	if err := parent.Run(10); err != nil {
		t.Fatal(err)
	}
	if parent.GPR[isa.RAX] != 1 {
		t.Fatalf("parent rax = %d after child's write, want 1", parent.GPR[isa.RAX])
	}
}

func TestPredecodedSelfModifyingCodeInvalidates(t *testing.T) {
	// A writable+executable segment: the program is executed, then the host
	// rewrites an instruction through the Space write path (bumping the
	// generation) and re-executes. The stale decode must not be reused.
	sp := mem.NewSpace()
	if _, err := sp.Map("jit", mem.TextBase, 0x100, mem.PermRead|mem.PermWrite|mem.PermExec); err != nil {
		t.Fatal(err)
	}
	prog := isa.EncodeAll([]isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.HLT},
	})
	if err := sp.Segment("jit").CopyIn(0, prog); err != nil {
		t.Fatal(err)
	}
	c := New(sp, rng.New(1))
	c.RIP = mem.TextBase
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.RAX] != 1 {
		t.Fatalf("first run: rax = %d, want 1", c.GPR[isa.RAX])
	}

	// Rewrite the immediate via guest-visible stores: MOVRI imm starts 2
	// bytes into the instruction.
	if err := sp.WriteU64(mem.TextBase+2, 99); err != nil {
		t.Fatal(err)
	}
	c2 := New(sp, rng.New(1))
	c2.code = c.code // share the cache, as a forked child would
	c2.RIP = mem.TextBase
	if err := c2.Run(10); err != nil {
		t.Fatal(err)
	}
	if c2.GPR[isa.RAX] != 99 {
		t.Fatalf("after self-modify: rax = %d, want 99 (stale decode reused?)", c2.GPR[isa.RAX])
	}
}

func TestForkedCPUSharesCodeCache(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 7},
		{Op: isa.HLT},
	}
	parent := buildEngineCPU(t, EngineCompiled, prog)
	if err := parent.Run(10); err != nil {
		t.Fatal(err)
	}
	if parent.code == nil {
		t.Fatal("compiled run did not build a code cache")
	}

	// Model the kernel's fork: copy the CPU, rebind to the cloned space.
	childSpace := parent.Mem.Clone()
	child := new(CPU)
	*child = *parent
	child.SetMem(childSpace)
	if child.code != parent.code {
		t.Fatal("fork-style CPU copy did not share the code cache")
	}
	child.RIP = mem.TextBase
	child.halted = false
	if err := child.Run(10); err != nil {
		t.Fatal(err)
	}
	if child.GPR[isa.RAX] != 7 {
		t.Fatalf("child rax = %d, want 7", child.GPR[isa.RAX])
	}
	// The child's run must not have re-decoded: same backing, same gen.
	if len(parent.code.segs) != 1 {
		t.Fatalf("cache holds %d segments, want 1 (shared decode)", len(parent.code.segs))
	}
}

func TestPredecodedStepLoopDoesNotAllocate(t *testing.T) {
	// Steady-state stepping through cached code must be allocation-free —
	// the property the BenchmarkStepLoop numbers in BENCH_engine.json track.
	body := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
		{Op: isa.LOAD, R1: isa.RAX, Base: isa.RBX, Disp: 0}, // loop:
		{Op: isa.STORE, R1: isa.RAX, Base: isa.RBX, Disp: 8},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 1},
	}
	back := isa.Inst{Op: isa.JMP}
	back.Disp = int32(-(body[1].Len() + body[2].Len() + body[3].Len() + back.Len()))
	c := buildEngineCPU(t, EngineCompiled, append(body, back))
	if err := c.Run(64); err != nil { // warm the cache
		if !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled step loop allocates %.1f times per 100 steps, want 0", allocs)
	}
}
