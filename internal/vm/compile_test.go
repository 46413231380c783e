package vm

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// canaryProg is the canonical fused-superinstruction shape: an SSP-style
// prologue install (ldfs;store) and epilogue check (load;xorfs;je) around a
// frame at rbp. The check passes (nothing clobbers the slot), so JE skips
// the HLT trap and the MOVRI marker runs.
//
// Layout (offsets from TextBase):
//
//	 0: movi  $frame, %rbp        (10 bytes)
//	10: ldfs  %fs:0x28, %rax      ( 6)  ┐ fused install
//	16: store %rax, -8(%rbp)      ( 7)  ┘
//	23: load  -8(%rbp), %rbx      ( 7)  ┐
//	30: xorfs %fs:0x28, %rbx      ( 6)  │ fused check
//	36: je    +1                  ( 5)  ┘
//	41: hlt                       ( 1)  (JE falls here only on mismatch)
//	42: movi  $99, %rcx           (10)
//	52: hlt
func canaryProg() []isa.Inst {
	frame := int64(mem.StackTop - 0x100)
	return []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBP, Imm: frame},
		{Op: isa.LDFS, R1: isa.RAX, Disp: 0x28},
		{Op: isa.STORE, R1: isa.RAX, Base: isa.RBP, Disp: -8},
		{Op: isa.LOAD, R1: isa.RBX, Base: isa.RBP, Disp: -8},
		{Op: isa.XORFS, R1: isa.RBX, Disp: 0x28},
		{Op: isa.JE, Disp: 1}, // skip the HLT trap
		{Op: isa.HLT},
		{Op: isa.MOVRI, R1: isa.RCX, Imm: 99},
		{Op: isa.HLT},
	}
}

func TestCompiledFusedCanarySequence(t *testing.T) {
	st, err := runAllEngines(t, canaryProg(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.GPR[isa.RCX] != 99 {
		t.Fatalf("rcx = %d, want 99 (canary check should pass and JE skip the trap)", st.GPR[isa.RCX])
	}
	if !st.ZF {
		t.Fatal("ZF clear after matching canary check")
	}
}

// TestCompiledJumpIntoFusedSuperinstruction enters execution in the middle
// of the fused sequences: once at an interior *instruction boundary* (the
// STORE constituent of the fused install) and once truly mid-instruction
// (inside the LDFS payload bytes, a cold offset). Both entries must execute
// with exact interpreter semantics.
func TestCompiledJumpIntoFusedSuperinstruction(t *testing.T) {
	prog := canaryProg()
	installOff := uint64(prog[0].Len())            // the LDFS
	storeOff := installOff + uint64(prog[1].Len()) // its fused STORE
	frame := uint64(mem.StackTop - 0x100)

	t.Run("constituent-boundary", func(t *testing.T) {
		st, err := diffEngines(t, 100, func(t *testing.T, e Engine) *CPU {
			c := buildEngineCPU(t, e, prog)
			// A full warm run first, so the compiled engine has the fused
			// block cached before the interior entry.
			if err := c.Run(100); err != nil {
				t.Fatal(err)
			}
			c.halted = false
			c.GPR = [isa.NumGPR]uint64{}
			c.GPR[isa.RSP] = mem.StackTop
			c.GPR[isa.RBP] = frame
			c.GPR[isa.RAX] = 0x1122334455667788
			c.ZF, c.CF = false, false
			c.RIP = mem.TextBase + storeOff
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
		// Entering at the STORE must store RAX (not a fresh canary load),
		// and the following check must still pass (slot == fs:0x28 == 0 is
		// false here, so rbx = rax ^ canary != 0 -> JE not taken -> HLT trap).
		if st.GPR[isa.RCX] == 99 {
			t.Fatal("interior entry unexpectedly passed the canary check")
		}
	})

	t.Run("mid-instruction", func(t *testing.T) {
		_, err := diffEngines(t, 100, func(t *testing.T, e Engine) *CPU {
			c := buildEngineCPU(t, e, prog)
			if err := c.Run(100); err != nil {
				t.Fatal(err)
			}
			c.halted = false
			c.GPR = [isa.NumGPR]uint64{}
			c.GPR[isa.RSP] = mem.StackTop
			c.GPR[isa.RBP] = frame
			c.ZF, c.CF = false, false
			// Three bytes into the LDFS: a cold offset inside the fused
			// superinstruction's span. Whatever those payload bytes decode
			// to, every engine must agree byte for byte.
			c.RIP = mem.TextBase + installOff + 3
			return c
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompiledFusedFaultUnwindsExactly faults each fused constituent and
// asserts the unwound per-step state (counters, RIP, partially retired
// constituent effects, fault detail) matches the other engines exactly.
func TestCompiledFusedFaultUnwindsExactly(t *testing.T) {
	t.Run("install-store-fault", func(t *testing.T) {
		// rbp unmapped: ldfs retires, its fused store faults.
		_, err := runAllEngines(t, []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RBP, Imm: 0x100},
			{Op: isa.LDFS, R1: isa.RAX, Disp: 0x28},
			{Op: isa.STORE, R1: isa.RAX, Base: isa.RBP, Disp: -8},
			{Op: isa.HLT},
		}, 100)
		if err == nil {
			t.Fatal("want store fault")
		}
	})
	t.Run("install-ldfs-fault", func(t *testing.T) {
		// fs:0x2000 is past the TLS block: the first constituent faults.
		_, err := runAllEngines(t, []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RBP, Imm: int64(mem.StackTop - 0x100)},
			{Op: isa.LDFS, R1: isa.RAX, Disp: 0x2000},
			{Op: isa.STORE, R1: isa.RAX, Base: isa.RBP, Disp: -8},
			{Op: isa.HLT},
		}, 100)
		if err == nil {
			t.Fatal("want fs load fault")
		}
	})
	t.Run("check-xorfs-fault", func(t *testing.T) {
		// The check's load retires (rbx must hold the loaded word in the
		// final state), then its fused xorfs faults past the TLS block.
		_, err := runAllEngines(t, []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RBP, Imm: int64(mem.StackTop - 0x100)},
			{Op: isa.LDFS, R1: isa.RAX, Disp: 0x28},
			{Op: isa.STORE, R1: isa.RAX, Base: isa.RBP, Disp: -8},
			{Op: isa.LOAD, R1: isa.RBX, Base: isa.RBP, Disp: -8},
			{Op: isa.XORFS, R1: isa.RBX, Disp: 0x2000},
			{Op: isa.JE, Disp: 1},
			{Op: isa.HLT},
			{Op: isa.HLT},
		}, 100)
		if err == nil {
			t.Fatal("want fs xor fault")
		}
	})
	t.Run("xor-check-xorfs-fault", func(t *testing.T) {
		// P-SSP shape: the leading xor retires (r1 and ZF updated), the
		// fused xorfs faults.
		_, err := runAllEngines(t, []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RAX, Imm: 5},
			{Op: isa.MOVRI, R1: isa.RBX, Imm: 5},
			{Op: isa.XORRR, R1: isa.RAX, R2: isa.RBX},
			{Op: isa.XORFS, R1: isa.RAX, Disp: 0x2000},
			{Op: isa.JE, Disp: 1},
			{Op: isa.HLT},
			{Op: isa.HLT},
		}, 100)
		if err == nil {
			t.Fatal("want fs xor fault")
		}
	})
}

// TestCompiledBudgetExhaustionMidBlock lands the instruction budget in the
// middle of a lowered block: the engine must fall back to exact per-step
// execution for the tail and report the identical budget crash.
func TestCompiledBudgetExhaustionMidBlock(t *testing.T) {
	// A straight-line block of 8 instructions ending in HLT; budgets that
	// land on every interior boundary must agree across engines.
	prog := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 2},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 3},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 4},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 5},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 6},
		{Op: isa.ADDRI, R1: isa.RAX, Imm: 7},
		{Op: isa.HLT},
	}
	for budget := uint64(1); budget < 8; budget++ {
		_, err := runAllEngines(t, prog, budget)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: %v, want ErrBudget", budget, err)
		}
	}
	// And across loop iterations: exhaustion mid-iteration of a hot block.
	for budget := uint64(7); budget < 29; budget += 3 {
		_, err := runAllEngines(t, covProg(), budget)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("loop budget %d: %v, want ErrBudget", budget, err)
		}
	}
}

// TestCompiledCOWWriteInvalidatesChildBlockOnly forks a compiled-engine CPU
// COW-style, rewrites the child's code, and asserts the child re-lowers
// while the parent keeps executing its cached compiled blocks.
func TestCompiledCOWWriteInvalidatesChildBlockOnly(t *testing.T) {
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
	parent.Engine = EngineCompiled
	parent.RIP = mem.TextBase
	if err := parent.Run(10); err != nil {
		t.Fatal(err)
	}
	if parent.GPR[isa.RAX] != 1 {
		t.Fatalf("parent rax = %d, want 1", parent.GPR[isa.RAX])
	}
	parentCode := parent.code.forSegment(sp.Segment("jit"))
	if parentCode.comp == nil || len(parentCode.comp.blocks) == 0 {
		t.Fatal("compiled run lowered no blocks")
	}
	parentComp := parentCode.comp

	childSpace := sp.Clone()
	child := new(CPU)
	*child = *parent
	child.SetMem(childSpace)
	// Guest-visible store into the child's exec segment: materializes the
	// COW copy and bumps the child's generation; the parent's compiled
	// blocks must be untouched.
	if err := childSpace.WriteU64(mem.TextBase+2, 42); err != nil {
		t.Fatal(err)
	}
	child.RIP = mem.TextBase
	child.halted = false
	if err := child.Run(10); err != nil {
		t.Fatal(err)
	}
	if child.GPR[isa.RAX] != 42 {
		t.Fatalf("child rax = %d, want 42 (stale compiled block reused after COW write)", child.GPR[isa.RAX])
	}

	parent.RIP = mem.TextBase
	parent.halted = false
	if err := parent.Run(10); err != nil {
		t.Fatal(err)
	}
	if parent.GPR[isa.RAX] != 1 {
		t.Fatalf("parent rax = %d after child's write, want 1", parent.GPR[isa.RAX])
	}
	if got := parent.code.forSegment(sp.Segment("jit")); got != parentCode || got.comp != parentComp {
		t.Fatal("parent re-lowered its blocks after the child's COW write")
	}
}

// TestCompiledSelfModifyingStoreInBlock stores over an instruction later in
// the same lowered block. The compiled engine must abandon the stale block
// after the store and execute the rewritten bytes, exactly as the per-step
// engines do.
func TestCompiledSelfModifyingStoreInBlock(t *testing.T) {
	build := func(t *testing.T, e Engine) *CPU {
		t.Helper()
		sp := mem.NewSpace()
		if _, err := sp.Map("jit", mem.TextBase, 0x100, mem.PermRead|mem.PermWrite|mem.PermExec); err != nil {
			t.Fatal(err)
		}
		// The STORE overwrites the opcode byte of the trailing MOVRI with
		// HLT (plus seven NOPs from the zero bytes of the immediate), so
		// execution must halt with RCX untouched.
		insts := []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RAX, Imm: int64(isa.HLT)},
			{Op: isa.MOVRI, R1: isa.RBX, Imm: 0}, // patched below
			{Op: isa.STORE, R1: isa.RAX, Base: isa.RBX, Disp: 0},
			{Op: isa.MOVRI, R1: isa.RCX, Imm: 7},
			{Op: isa.HLT},
		}
		targetOff := insts[0].Len() + insts[1].Len() + insts[2].Len()
		insts[1].Imm = int64(mem.TextBase) + int64(targetOff)
		if err := sp.Segment("jit").CopyIn(0, isa.EncodeAll(insts)); err != nil {
			t.Fatal(err)
		}
		c := New(sp, rng.New(1))
		c.Engine = e
		c.RIP = mem.TextBase
		return c
	}
	st, err := diffEngines(t, 100, build)
	if err != nil {
		t.Fatal(err)
	}
	if st.GPR[isa.RCX] != 0 {
		t.Fatalf("rcx = %d, want 0 (stale block executed the overwritten MOVRI)", st.GPR[isa.RCX])
	}
	if st.Insts != 4 {
		t.Fatalf("insts = %d, want 4 (movi, movi, store, hlt)", st.Insts)
	}
}

// TestCompiledCoverageBitIdentical runs the fused canary program and a
// branchy loop under coverage on every engine and asserts the resulting
// maps are bit-identical — fused superinstructions must record one edge per
// constituent, in per-step order.
func TestCompiledCoverageBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog []isa.Inst
	}{
		{"canary", canaryProg()},
		{"loop", covProg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			record := func(a engineArm) *CovMap {
				c := buildEngineCPU(t, a.engine, tc.prog)
				var cov CovMap
				c.SetCoverage(&cov)
				if err := a.run(c, 1000); err != nil {
					t.Fatal(err)
				}
				return &cov
			}
			ref := record(allEngines[0])
			for _, e := range allEngines[1:] {
				if got := record(e); got.hits != ref.hits {
					t.Fatalf("coverage maps diverged between %s and %s", allEngines[0], e)
				}
			}
		})
	}
}

// TestCompiledDispatchLoopDoesNotAllocate pins the allocation-free
// steady state of the compiled dispatch loop — the same invariant
// coverage_test.go pins for the per-step path — with coverage disabled
// and enabled. The program mixes fused canary sequences, stack traffic and
// plain memory ops so all three view classes stay hot.
func TestCompiledDispatchLoopDoesNotAllocate(t *testing.T) {
	prog := func() []isa.Inst {
		head := []isa.Inst{
			{Op: isa.MOVRI, R1: isa.RBP, Imm: int64(mem.StackTop - 0x100)},
			{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
			{Op: isa.MOVRI, R1: isa.RCX, Imm: 12},
		}
		body := []isa.Inst{
			{Op: isa.LDFS, R1: isa.RAX, Disp: 0x28}, // loop: fused install
			{Op: isa.STORE, R1: isa.RAX, Base: isa.RBP, Disp: -8},
			{Op: isa.STORE, R1: isa.RCX, Base: isa.RBX, Disp: 0},
			{Op: isa.LOAD, R1: isa.RDX, Base: isa.RBX, Disp: 0},
			{Op: isa.PUSH, R1: isa.RDX},
			{Op: isa.POP, R1: isa.RDX},
			{Op: isa.LOAD, R1: isa.RSI, Base: isa.RBP, Disp: -8}, // fused check
			{Op: isa.XORFS, R1: isa.RSI, Disp: 0x28},
			{Op: isa.JE, Disp: 1},
			{Op: isa.HLT}, // canary mismatch trap (never taken)
			{Op: isa.SUBRI, R1: isa.RCX, Imm: 1},
			{Op: isa.CMPRI, R1: isa.RCX, Imm: 0},
		}
		back := isa.Inst{Op: isa.JNE}
		total := back.Len()
		for _, in := range body {
			total += in.Len()
		}
		back.Disp = int32(-total)
		return append(append(head, body...), back, isa.Inst{Op: isa.HLT})
	}()
	run := func(t *testing.T, cov *CovMap) {
		t.Helper()
		c := buildEngineCPU(t, EngineCompiled, prog)
		c.SetCoverage(cov)
		allocs := testing.AllocsPerRun(50, func() {
			c.RIP = mem.TextBase
			c.halted = false
			if err := c.Run(250); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("compiled dispatch loop allocates %.1f times per run, want 0", allocs)
		}
	}
	t.Run("disabled", func(t *testing.T) { run(t, nil) })
	t.Run("enabled", func(t *testing.T) { run(t, new(CovMap)) })
}

// TestCompiledForkSharesLoweredBlocks models the kernel's fork: the copied
// CPU shares the code cache — and with it the lowered blocks — with the
// parent, and executes correctly against the cloned space.
func TestCompiledForkSharesLoweredBlocks(t *testing.T) {
	parent := buildEngineCPU(t, EngineCompiled, canaryProg())
	if err := parent.Run(100); err != nil {
		t.Fatal(err)
	}
	sc := parent.curCode
	if sc == nil || sc.comp == nil || len(sc.comp.blocks) == 0 {
		t.Fatal("compiled run left no lowered blocks")
	}
	nblocks := len(sc.comp.blocks)

	childSpace := parent.Mem.Clone()
	child := new(CPU)
	*child = *parent
	child.SetMem(childSpace)
	if child.code != parent.code {
		t.Fatal("fork-style CPU copy did not share the code cache")
	}
	child.RIP = mem.TextBase
	child.halted = false
	child.GPR = [isa.NumGPR]uint64{}
	child.GPR[isa.RSP] = mem.StackTop
	if err := child.Run(100); err != nil {
		t.Fatal(err)
	}
	if child.GPR[isa.RCX] != 99 {
		t.Fatalf("child rcx = %d, want 99", child.GPR[isa.RCX])
	}
	// The child executed from the shared cache: same segCode, no new blocks
	// beyond any cold-entry lowering the parent already did.
	if got := len(sc.comp.blocks); got != nblocks {
		t.Fatalf("child run re-lowered blocks: %d -> %d", nblocks, got)
	}
}

// TestCompiledStepLoopBudgetResume pins resumability: a compiled CPU
// stopped by the budget watchdog continues exactly where it stopped.
func TestCompiledStepLoopBudgetResume(t *testing.T) {
	build := func(t *testing.T, e Engine) *CPU {
		c := buildEngineCPU(t, e, covProg())
		// First run exhausts a small budget mid-loop...
		if err := c.Run(40); !errors.Is(err, ErrBudget) {
			t.Fatalf("want budget kill, got %v", err)
		}
		return c
	}
	// ...then the resumed run must complete identically on every engine.
	st, err := diffEngines(t, 1000, build)
	if err != nil {
		t.Fatal(err)
	}
	if st.GPR[isa.RAX] != 32*33/2 {
		t.Fatalf("rax = %d, want %d", st.GPR[isa.RAX], 32*33/2)
	}
}
