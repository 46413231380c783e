package vm

import (
	"bytes"
	"context"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// buildCPU maps a standard layout, installs the given program at TextBase,
// and returns a ready-to-run CPU.
func buildCPU(t *testing.T, prog []isa.Inst) *CPU {
	t.Helper()
	sp := mem.NewSpace()
	if _, err := sp.Map("text", mem.TextBase, 0x1000, mem.PermRead|mem.PermExec); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Map("data", mem.DataBase, 0x1000, mem.PermRead|mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Map("tls", mem.TLSBase, mem.TLSSize, mem.PermRead|mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Map("stack", mem.StackTop-mem.StackSize, mem.StackSize, mem.PermRead|mem.PermWrite); err != nil {
		t.Fatal(err)
	}
	code := isa.EncodeAll(prog)
	if err := sp.Segment("text").CopyIn(0, code); err != nil {
		t.Fatal(err)
	}
	c := New(sp, rng.New(1))
	c.RIP = mem.TextBase
	c.FSBase = mem.TLSBase
	c.GPR[isa.RSP] = mem.StackTop
	return c
}

func run(t *testing.T, c *CPU) {
	t.Helper()
	if err := c.Run(10000); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestMovAndArithmetic(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 10},
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 32},
		{Op: isa.ADDRR, R1: isa.RAX, R2: isa.RBX}, // rax = 42
		{Op: isa.MOVRR, R1: isa.RCX, R2: isa.RAX},
		{Op: isa.SUBRI, R1: isa.RCX, Imm: 2}, // rcx = 40
		{Op: isa.SHLRI, R1: isa.RCX, Imm: 1}, // rcx = 80
		{Op: isa.SHRRI, R1: isa.RCX, Imm: 2}, // rcx = 20
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RAX] != 42 || c.GPR[isa.RCX] != 20 {
		t.Fatalf("rax=%d rcx=%d", c.GPR[isa.RAX], c.GPR[isa.RCX])
	}
}

func TestPushPopStack(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x1234},
		{Op: isa.PUSH, R1: isa.RAX},
		{Op: isa.POP, R1: isa.RBX},
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RBX] != 0x1234 {
		t.Fatalf("rbx = 0x%x", c.GPR[isa.RBX])
	}
	if c.GPR[isa.RSP] != mem.StackTop {
		t.Fatalf("rsp not restored: 0x%x", c.GPR[isa.RSP])
	}
}

func TestLoadStore(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x5555},
		{Op: isa.STORE, R1: isa.RAX, Base: isa.RBX, Disp: 16},
		{Op: isa.LOAD, R1: isa.RCX, Base: isa.RBX, Disp: 16},
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RCX] != 0x5555 {
		t.Fatalf("rcx = 0x%x", c.GPR[isa.RCX])
	}
}

func TestTLSAccess(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x7777},
		{Op: isa.STFS, R1: isa.RAX, Disp: 0x28},
		{Op: isa.LDFS, R1: isa.RBX, Disp: 0x28},
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RBX] != 0x7777 {
		t.Fatalf("tls round trip: rbx = 0x%x", c.GPR[isa.RBX])
	}
	v, err := c.Mem.ReadU64(mem.TLSBase + 0x28)
	if err != nil || v != 0x7777 {
		t.Fatalf("fs:0x28 = 0x%x, err %v", v, err)
	}
}

func TestXorFSSetsZF(t *testing.T) {
	// The SSP epilogue's core: xor %fs:0x28, %rdx sets ZF iff they match.
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0xbeef},
		{Op: isa.STFS, R1: isa.RAX, Disp: 0x28},
		{Op: isa.MOVRI, R1: isa.RDX, Imm: 0xbeef},
		{Op: isa.XORFS, R1: isa.RDX, Disp: 0x28},
		{Op: isa.HLT},
	})
	run(t, c)
	if !c.ZF {
		t.Fatal("matching canary did not set ZF")
	}
}

func TestConditionalBranches(t *testing.T) {
	// je skips a movi when ZF set.
	skip := isa.Inst{Op: isa.MOVRI, R1: isa.RAX, Imm: 99}
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 5},
		{Op: isa.CMPRI, R1: isa.RBX, Imm: 5},
		{Op: isa.JE, Disp: int32(skip.Len())},
		skip,
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RAX] == 99 {
		t.Fatal("je did not branch on ZF")
	}

	c = buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 5},
		{Op: isa.CMPRI, R1: isa.RBX, Imm: 6},
		{Op: isa.JNE, Disp: int32(skip.Len())},
		skip,
		{Op: isa.HLT},
	})
	run(t, c)
	if c.GPR[isa.RAX] == 99 {
		t.Fatal("jne did not branch on !ZF")
	}
}

func TestCallRetLeave(t *testing.T) {
	// main: call f; hlt.   f: push rbp; mov rsp,rbp; mov 7,rax; leave; ret
	main := []isa.Inst{
		{Op: isa.CALL, Disp: 0}, // patched below
		{Op: isa.HLT},
	}
	f := []isa.Inst{
		{Op: isa.PUSH, R1: isa.RBP},
		{Op: isa.MOVRR, R1: isa.RBP, R2: isa.RSP},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 7},
		{Op: isa.LEAVE},
		{Op: isa.RET},
	}
	// f starts right after main.
	mainLen := 0
	for _, in := range main {
		mainLen += in.Len()
	}
	main[0].Disp = int32(mainLen - main[0].Len()) // rel to next inst
	c := buildCPU(t, append(main, f...))
	run(t, c)
	if c.GPR[isa.RAX] != 7 {
		t.Fatalf("rax = %d, want 7", c.GPR[isa.RAX])
	}
	if c.GPR[isa.RSP] != mem.StackTop {
		t.Fatalf("stack imbalance: rsp=0x%x", c.GPR[isa.RSP])
	}
}

func TestRdrandDeterministicPerSeed(t *testing.T) {
	prog := []isa.Inst{{Op: isa.RDRAND, R1: isa.RAX}, {Op: isa.HLT}}
	a, b := buildCPU(t, prog), buildCPU(t, prog)
	run(t, a)
	run(t, b)
	if a.GPR[isa.RAX] != b.GPR[isa.RAX] {
		t.Fatal("same seed produced different rdrand values")
	}
	if !a.CF {
		t.Fatal("rdrand did not set CF")
	}
	if a.GPR[isa.RAX] == 0 {
		t.Fatal("rdrand returned 0 on first draw with seed 1")
	}
}

func TestRdtscSplitAcrossRaxRdx(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.RDTSC},
		{Op: isa.SHLRI, R1: isa.RDX, Imm: 0x20},
		{Op: isa.ORRR, R1: isa.RAX, R2: isa.RDX},
		{Op: isa.HLT},
	})
	run(t, c)
	// After reassembly rax holds the full TSC, which equals the cycle count
	// at the moment rdtsc executed (= cost of rdtsc itself).
	if c.GPR[isa.RAX] != isa.RDTSC.Cycles() {
		t.Fatalf("reassembled tsc = %d, want %d", c.GPR[isa.RAX], isa.RDTSC.Cycles())
	}
}

func TestAESMatchesStdlib(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.R13, Imm: 0x1111111111111111},
		{Op: isa.MOVRI, R1: isa.R12, Imm: 0x2222222222222222},
		{Op: isa.MOVQX, X1: isa.XMM1, R1: isa.R13},
		{Op: isa.PUNPCKX, X1: isa.XMM1, R1: isa.R12},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x3333333333333333},
		{Op: isa.MOVQX, X1: isa.XMM15, R1: isa.RAX},
		{Op: isa.AESENC},
		{Op: isa.HLT},
	})
	run(t, c)

	var key, block [16]byte
	binary.LittleEndian.PutUint64(key[:8], 0x1111111111111111)
	binary.LittleEndian.PutUint64(key[8:], 0x2222222222222222)
	binary.LittleEndian.PutUint64(block[:8], 0x3333333333333333)
	cipher, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	cipher.Encrypt(block[:], block[:])
	wantLo := binary.LittleEndian.Uint64(block[:8])
	wantHi := binary.LittleEndian.Uint64(block[8:])
	if c.X[isa.XMM15][0] != wantLo || c.X[isa.XMM15][1] != wantHi {
		t.Fatalf("aes mismatch: got (%x,%x) want (%x,%x)",
			c.X[isa.XMM15][0], c.X[isa.XMM15][1], wantLo, wantHi)
	}
}

func TestXmmLoadStoreCompare(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x0a0b0c0d},
		{Op: isa.MOVQX, X1: isa.XMM15, R1: isa.RAX},
		{Op: isa.MOVHX, X1: isa.XMM15, Base: isa.RBX, Disp: 64}, // loads zeros
		{Op: isa.STX, X1: isa.XMM15, Base: isa.RBX, Disp: 0},
		{Op: isa.CMPX, X1: isa.XMM15, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	})
	run(t, c)
	if !c.ZF {
		t.Fatal("cmpx against just-stored value did not set ZF")
	}
	// Corrupt one byte and re-compare.
	c2 := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: int64(mem.DataBase)},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x0a0b0c0d},
		{Op: isa.MOVQX, X1: isa.XMM15, R1: isa.RAX},
		{Op: isa.STX, X1: isa.XMM15, Base: isa.RBX, Disp: 0},
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0x0a0b0c0e},
		{Op: isa.MOVQX, X1: isa.XMM15, R1: isa.RAX},
		{Op: isa.CMPX, X1: isa.XMM15, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	})
	run(t, c2)
	if c2.ZF {
		t.Fatal("cmpx against corrupted value set ZF")
	}
}

func TestCrashOnUnmappedAccess(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 0x100},
		{Op: isa.LOAD, R1: isa.RAX, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	})
	err := c.Run(100)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	var fault *mem.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("crash does not wrap mem.Fault: %v", err)
	}
}

func TestCrashOnIllegalInstruction(t *testing.T) {
	sp := mem.NewSpace()
	if _, err := sp.Map("text", mem.TextBase, 16, mem.PermRead|mem.PermExec); err != nil {
		t.Fatal(err)
	}
	sp.Segment("text").Data[0] = 0xee
	c := New(sp, rng.New(1))
	c.RIP = mem.TextBase
	var crash *CrashError
	if err := c.Step(); !errors.As(err, &crash) {
		t.Fatalf("expected crash on illegal opcode, got %v", err)
	}
}

func TestCrashOnExecuteData(t *testing.T) {
	c := buildCPU(t, nil)
	c.RIP = mem.DataBase
	var crash *CrashError
	if err := c.Step(); !errors.As(err, &crash) {
		t.Fatalf("expected crash executing data segment, got %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	// Infinite loop: jmp -5 back onto itself.
	self := isa.Inst{Op: isa.JMP}
	self.Disp = int32(-self.Len())
	c := buildCPU(t, []isa.Inst{self})
	err := c.Run(50)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected budget crash, got %v", err)
	}
	if c.Insts != 50 {
		t.Fatalf("executed %d instructions, want 50", c.Insts)
	}
}

func TestCycleAccounting(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.NOP},
		{Op: isa.RDRAND, R1: isa.RAX},
		{Op: isa.HLT},
	})
	run(t, c)
	want := isa.NOP.Cycles() + isa.RDRAND.Cycles() + isa.HLT.Cycles()
	if c.Cycles != want {
		t.Fatalf("cycles = %d, want %d", c.Cycles, want)
	}
}

type testSys struct {
	calls []uint64
	halt  bool
}

func (s *testSys) Syscall(cpu *CPU, nr, a1, a2, a3 uint64) (uint64, error) {
	s.calls = append(s.calls, nr)
	if s.halt {
		cpu.Halt()
	}
	return nr + a1, nil
}

func TestSyscallDispatch(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 9},
		{Op: isa.MOVRI, R1: isa.RDI, Imm: 33},
		{Op: isa.SYSCALL},
		{Op: isa.HLT},
	})
	sys := &testSys{}
	c.Sys = sys
	run(t, c)
	if len(sys.calls) != 1 || sys.calls[0] != 9 {
		t.Fatalf("syscall calls = %v", sys.calls)
	}
	if c.GPR[isa.RAX] != 42 {
		t.Fatalf("syscall return in rax = %d, want 42", c.GPR[isa.RAX])
	}
}

func TestSyscallHalt(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.SYSCALL},
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 1}, // must not execute
	})
	c.Sys = &testSys{halt: true}
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.RBX] == 1 {
		t.Fatal("instruction after exit syscall executed")
	}
}

func TestSyscallWithNoHandlerCrashes(t *testing.T) {
	c := buildCPU(t, []isa.Inst{{Op: isa.SYSCALL}})
	var crash *CrashError
	if err := c.Run(10); !errors.As(err, &crash) {
		t.Fatalf("expected crash, got %v", err)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	// Pushing forever must eventually fault at the stack guard (unmapped
	// memory below the stack segment), not corrupt other segments.
	loop := []isa.Inst{
		{Op: isa.PUSH, R1: isa.RAX},
	}
	self := isa.Inst{Op: isa.JMP}
	self.Disp = int32(-(self.Len() + loop[0].Len()))
	c := buildCPU(t, append(loop, self))
	err := c.Run(1 << 20)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected stack fault, got %v", err)
	}
}

func TestHaltedCPUStaysHalted(t *testing.T) {
	c := buildCPU(t, []isa.Inst{{Op: isa.HLT}})
	run(t, c)
	if err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Fatalf("step after halt = %v, want ErrHalted", err)
	}
}

func TestWriterTracer(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.NOP},
		{Op: isa.HLT},
	})
	var buf bytes.Buffer
	c.SetTracer(&WriterTracer{W: &buf, Limit: 2})
	run(t, c)
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("traced %d lines, want 2 (limit)", lines)
	}
	if !strings.Contains(buf.String(), "movi $1, %rax") {
		t.Fatalf("trace output %q lacks disassembly", buf.String())
	}
}

func TestOpStats(t *testing.T) {
	c := buildCPU(t, []isa.Inst{
		{Op: isa.RDRAND, R1: isa.RAX},
		{Op: isa.NOP},
		{Op: isa.NOP},
		{Op: isa.HLT},
	})
	stats := &OpStats{}
	c.SetTracer(stats)
	run(t, c)
	if stats.Count[isa.NOP] != 2 || stats.Count[isa.RDRAND] != 1 {
		t.Fatalf("counts nop=%d rdrand=%d", stats.Count[isa.NOP], stats.Count[isa.RDRAND])
	}
	insts, cycles := stats.Total()
	if insts != 4 {
		t.Fatalf("total insts %d", insts)
	}
	if cycles != c.Cycles {
		t.Fatalf("stat cycles %d != cpu cycles %d", cycles, c.Cycles)
	}
	var buf bytes.Buffer
	stats.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "rdrand") || !strings.Contains(out, "nop") {
		t.Fatalf("report %q missing opcodes", out)
	}
	// rdrand (337 cycles) must sort above nop (2 cycles).
	if strings.Index(out, "rdrand") > strings.Index(out, "nop") {
		t.Fatal("report not sorted by cycles")
	}
}

func TestTracerClearable(t *testing.T) {
	c := buildCPU(t, []isa.Inst{{Op: isa.NOP}, {Op: isa.HLT}})
	stats := &OpStats{}
	c.SetTracer(stats)
	c.SetTracer(nil)
	run(t, c)
	if n, _ := stats.Total(); n != 0 {
		t.Fatal("cleared tracer still invoked")
	}
}

// TestRunContextCancellation drives the VM-level cancellation path: an
// infinite loop is aborted by a cancelled context, leaving the CPU
// resumable.
func TestRunContextCancellation(t *testing.T) {
	spin := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.JMP, Disp: -int32(isa.JMP.EncodedLen())}, // jump to self
	}

	// Pre-cancelled: returns promptly with the context error.
	c := buildCPU(t, spin)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext: %v, want context.Canceled", err)
	}

	// Cancelled mid-run: the loop must notice within the polling stride.
	c2 := buildCPU(t, spin)
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	if err := c2.RunContext(ctx2, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run RunContext: %v, want context.Canceled", err)
	}
	if c2.Insts == 0 || c2.Halted() {
		t.Fatalf("CPU state after cancellation: insts=%d halted=%v", c2.Insts, c2.Halted())
	}
	// The CPU is left where it stopped: a bounded resume still executes.
	before := c2.Insts
	if err := c2.RunContext(context.Background(), 10); err == nil || c2.Insts != before+10 {
		t.Fatalf("resume after cancel: err=%v insts=%d want %d", err, c2.Insts, before+10)
	}
}

// TestCrashErrorMessage pins CrashError.Error to the fmt rendering it
// replaced, byte for byte: crash messages reach reports and triage keys.
func TestCrashErrorMessage(t *testing.T) {
	reasons := []string{"", "abort (stack smashing detected)", strings.Repeat("long reason ", 20)}
	for _, rip := range []uint64{0, 0x400000, ^uint64(0)} {
		for _, reason := range reasons {
			e := &CrashError{RIP: rip, Reason: reason}
			if got, want := e.Error(), fmt.Sprintf("vm: crash at rip=0x%x: %s", rip, reason); got != want {
				t.Errorf("Error() = %q, want %q", got, want)
			}
		}
	}
}
