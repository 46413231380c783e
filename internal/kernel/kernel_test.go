package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/vm"
)

// buildStatic assembles src into a statically linked binary with a data
// section and the given scheme metadata.
func buildStatic(t *testing.T, src, scheme string) *binfmt.Binary {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b := binfmt.New()
	b.Entry = mem.TextBase
	b.AddSection(".text", mem.TextBase, mem.PermRead|mem.PermExec, p.Code)
	b.AddSection(".data", mem.DataBase, mem.PermRead|mem.PermWrite, make([]byte, abi.DataSize))
	b.Meta[abi.MetaLinkage] = abi.LinkStatic
	b.Meta[abi.MetaScheme] = scheme
	b.Meta[abi.MetaKind] = "app"
	for name, off := range p.Labels {
		b.AddSymbol(binfmt.Symbol{Name: name, Addr: mem.TextBase + uint64(off), Kind: binfmt.SymFunc})
	}
	return b
}

const exitProg = `
_start:
	movi $60, %rax
	movi $7, %rdi
	syscall
`

// serverProg is a hand-written fork server with a 16-byte stack buffer
// protected by a classic SSP canary at rbp-8. read(2) is called with the
// request length as the byte count — the paper's overflow vector.
const serverProg = `
_start:
	call serve
	movi $60, %rax
	movi $0, %rdi
	syscall
serve:
	push %rbp
	mov %rsp, %rbp
	subi $32, %rsp
	ldfs %fs:0x28, %rax
	store -8(%rbp), %rax
loop:
	movi $200, %rax
	syscall
	cmpi $0, %rax
	je check
	mov %rax, %rdx
	movi $0, %rax
	movi $0, %rdi
	lea -24(%rbp), %rsi
	syscall
	movi $1, %rax
	movi $1, %rdi
	lea -24(%rbp), %rsi
	movi $4, %rdx
	syscall
	jmp loop
check:
	load -8(%rbp), %rdx
	xorfs %fs:0x28, %rdx
	je ok
	call fail
ok:
	leave
	ret
fail:
	movi $101, %rax
	syscall
`

func TestSpawnRunExit(t *testing.T) {
	k := New(1)
	p, err := k.Spawn(buildStatic(t, exitProg, "none"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := k.Run(p); st != StateExited {
		t.Fatalf("state %s, want exited (%s)", st, p.CrashReason)
	}
	if p.ExitCode != 7 {
		t.Fatalf("exit code %d, want 7", p.ExitCode)
	}
}

func TestSpawnSeedsTLS(t *testing.T) {
	k := New(2)
	p, err := k.Spawn(buildStatic(t, exitProg, "p-ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TLS().Verify(); err != nil {
		t.Fatal(err)
	}
	c, err := p.TLS().Canary()
	if err != nil || c == 0 {
		t.Fatalf("canary %x err %v", c, err)
	}
}

func TestDynamicLinkageNeedsLibc(t *testing.T) {
	b := buildStatic(t, exitProg, "none")
	b.Meta[abi.MetaLinkage] = abi.LinkDynamic
	if _, err := New(1).Spawn(b, SpawnOpts{}); err == nil {
		t.Fatal("dynamic spawn without libc succeeded")
	}
}

func TestForkServerBenignRequest(t *testing.T) {
	k := New(3)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Handle([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed {
		t.Fatalf("benign request crashed: %s", out.CrashReason)
	}
	if !bytes.Equal(out.Response, []byte("ping")) {
		t.Fatalf("response %q", out.Response)
	}
	if out.Cycles == 0 || out.Insts == 0 {
		t.Fatal("no cost accounting")
	}
}

func TestForkServerManyRequestsIndependent(t *testing.T) {
	k := New(4)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := srv.Handle([]byte("heyo"))
		if err != nil {
			t.Fatal(err)
		}
		if out.Crashed {
			t.Fatalf("request %d crashed: %s", i, out.CrashReason)
		}
	}
	if srv.Requests != 20 || srv.Crashes != 0 {
		t.Fatalf("requests=%d crashes=%d", srv.Requests, srv.Crashes)
	}
}

func TestOverflowCrashesSSPWorker(t *testing.T) {
	k := New(5)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// 17 bytes: fills the 16-byte buffer and corrupts the canary's low byte.
	// Pick a byte guaranteed to differ from the real low byte (with seed 5
	// the canary's low byte happens to be 0x41 — an accidental correct
	// guess that would make the worker survive).
	c, err := srv.Parent().TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x41}, 17)
	payload[16] = ^byte(c)
	out, err := srv.Handle(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed {
		t.Fatal("overflow did not crash the worker")
	}
	if !strings.Contains(out.CrashReason, "stack smashing") {
		t.Fatalf("crash reason %q, want stack-smashing abort", out.CrashReason)
	}
}

func TestOverflowWithCorrectCanarySurvives(t *testing.T) {
	// The oracle property: a guess matching the real canary does not crash.
	k := New(6)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Parent().TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 24)
	for i := 0; i < 16; i++ {
		payload[i] = 'A'
	}
	for i := 0; i < 8; i++ {
		payload[16+i] = byte(c >> (8 * i))
	}
	out, err := srv.Handle(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed {
		t.Fatalf("correct-canary overflow crashed: %s", out.CrashReason)
	}
}

func TestChildInheritsParentTLSCanary(t *testing.T) {
	// The vulnerability SSP has and the byte-by-byte attack needs.
	k := New(7)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	parentC, _ := srv.Parent().TLS().Canary()
	child, err := k.Fork(srv.Parent())
	if err != nil {
		t.Fatal(err)
	}
	childC, _ := child.TLS().Canary()
	if parentC != childC {
		t.Fatal("child TLS canary differs from parent under SSP")
	}
}

func TestPSSPForkRefreshesShadowOnly(t *testing.T) {
	k := New(8)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{Preload: core.SchemePSSP})
	if err != nil {
		t.Fatal(err)
	}
	parentC, _ := srv.Parent().TLS().Canary()
	p0, p1, _ := srv.Parent().TLS().Shadow()

	child, err := k.Fork(srv.Parent())
	if err != nil {
		t.Fatal(err)
	}
	childC, _ := child.TLS().Canary()
	c0, c1, _ := child.TLS().Shadow()

	if childC != parentC {
		t.Fatal("P-SSP fork changed the TLS canary (must not)")
	}
	if c0 == p0 && c1 == p1 {
		t.Fatal("P-SSP fork did not refresh the shadow pair")
	}
	if !core.Check(c0, c1, childC) {
		t.Fatal("child shadow pair inconsistent")
	}
}

func TestRAFSSPBreaksInheritedFrames(t *testing.T) {
	// Table I's "Correctness: No" row: with renew-after-fork, a benign
	// request crashes the child when it returns through the frame its
	// parent created before the fork.
	k := New(9)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{Preload: core.SchemeRAFSSP})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Handle([]byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed {
		t.Fatal("RAF-SSP child survived returning through an inherited frame")
	}
}

func TestPSSPPreloadKeepsSSPBinaryCorrect(t *testing.T) {
	// Backward compatibility: the P-SSP preload on an SSP-compiled binary
	// must not break it (the paper's §VI-C compatibility experiment).
	k := New(10)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{Preload: core.SchemePSSP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, err := srv.Handle([]byte("benign"))
		if err != nil {
			t.Fatal(err)
		}
		if out.Crashed {
			t.Fatalf("request %d: false positive under P-SSP preload: %s", i, out.CrashReason)
		}
	}
}

func TestForkIsolatesMemory(t *testing.T) {
	k := New(11)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(srv.Parent())
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Space.WriteU64(mem.DataBase+abi.GlobalsOff, 0xdead); err != nil {
		t.Fatal(err)
	}
	v, _ := srv.Parent().Space.ReadU64(mem.DataBase + abi.GlobalsOff)
	if v == 0xdead {
		t.Fatal("child write visible in parent")
	}
}

func TestDeliverToRunningProcessFails(t *testing.T) {
	k := New(12)
	p, err := k.Spawn(buildStatic(t, exitProg, "none"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Deliver([]byte("x")); err == nil {
		t.Fatal("deliver to running process succeeded")
	}
}

func TestOWFStartupParksKeyInRegisters(t *testing.T) {
	k := New(13)
	p, err := k.Spawn(buildStatic(t, exitProg, "p-ssp-owf"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r12, r13 := p.CPU.GPR[12], p.CPU.GPR[13]
	if r12 == 0 && r13 == 0 {
		t.Fatal("OWF key not installed in r12/r13")
	}
}

func TestDCRStartupInitializesHead(t *testing.T) {
	k := New(14)
	p, err := k.Spawn(buildStatic(t, exitProg, "dcr"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	head, err := p.Space.ReadU64(mem.DataBase + abi.DCRHeadOff)
	if err != nil {
		t.Fatal(err)
	}
	if head != abi.DCRListEnd {
		t.Fatalf("DCR head 0x%x, want sentinel 0x%x", head, abi.DCRListEnd)
	}
}

func TestDynaGuardForkRewritesCAB(t *testing.T) {
	k := New(15)
	p, err := k.Spawn(buildStatic(t, exitProg, "dynaguard"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	oldC, _ := p.TLS().Canary()
	// Simulate two live frames whose canary slots sit in the stack segment.
	slotA := mem.StackTop - 0x100
	slotB := mem.StackTop - 0x200
	for _, s := range []uint64{slotA, slotB} {
		if err := p.Space.WriteU64(s, oldC); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Space.WriteU64(mem.DataBase+abi.DynaGuardCountOff, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Space.WriteU64(mem.DataBase+abi.DynaGuardBufOff, slotA); err != nil {
		t.Fatal(err)
	}
	if err := p.Space.WriteU64(mem.DataBase+abi.DynaGuardBufOff+8, slotB); err != nil {
		t.Fatal(err)
	}

	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	newC, _ := child.TLS().Canary()
	if newC == oldC {
		t.Fatal("DynaGuard fork did not renew TLS canary")
	}
	for _, s := range []uint64{slotA, slotB} {
		v, _ := child.Space.ReadU64(s)
		if v != newC {
			t.Fatalf("CAB slot 0x%x not rewritten: %x vs %x", s, v, newC)
		}
	}
	// Parent untouched.
	v, _ := p.Space.ReadU64(slotA)
	if v != oldC {
		t.Fatal("DynaGuard fork modified the parent stack")
	}
}

func TestDCRForkWalksList(t *testing.T) {
	k := New(16)
	p, err := k.Spawn(buildStatic(t, exitProg, "dcr"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	oldC, _ := p.TLS().Canary()
	// Build a two-node list: slotB (newer, head) -> slotA -> sentinel.
	slotA := mem.StackTop - 0x100
	slotB := mem.StackTop - 0x200
	deltaA := (abi.DCRListEnd - slotA) >> 3
	deltaB := (slotA - slotB) >> 3
	if err := p.Space.WriteU64(slotA, oldC&abi.DCRHighMask|deltaA); err != nil {
		t.Fatal(err)
	}
	if err := p.Space.WriteU64(slotB, oldC&abi.DCRHighMask|deltaB); err != nil {
		t.Fatal(err)
	}
	if err := p.Space.WriteU64(mem.DataBase+abi.DCRHeadOff, slotB); err != nil {
		t.Fatal(err)
	}

	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	newC, _ := child.TLS().Canary()
	if newC&abi.DCRHighMask == oldC&abi.DCRHighMask {
		t.Fatal("DCR fork did not renew canary high bits")
	}
	for _, c := range []struct {
		slot  uint64
		delta uint64
	}{{slotA, deltaA}, {slotB, deltaB}} {
		v, _ := child.Space.ReadU64(c.slot)
		if v&abi.DCRHighMask != newC&abi.DCRHighMask {
			t.Fatalf("slot 0x%x high bits not rewritten", c.slot)
		}
		if v&abi.DCRDeltaMask != c.delta {
			t.Fatalf("slot 0x%x delta corrupted by walk", c.slot)
		}
	}
}

func TestRunBudgetCrashes(t *testing.T) {
	k := New(17)
	k.MaxInsts = 10
	srvBin := buildStatic(t, `
spin:
	jmp spin
`, "none")
	p, err := k.Spawn(srvBin, SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := k.Run(p); st != StateCrashed {
		t.Fatalf("state %s, want crashed on budget", st)
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{StateRunning, StateWaiting, StateExited, StateCrashed, State(9)} {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

// --- copy-on-write fork semantics ---

// TestForkInheritsTLSByteIdentical pins the property the byte-by-byte
// attack exploits: under COW fork the child's TLS canary C is byte-for-byte
// the parent's, while the shadow pair was refreshed by the fork hook.
func TestForkInheritsTLSByteIdentical(t *testing.T) {
	k := New(21)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "p-ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	parent := srv.Parent()
	pc, err := parent.TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parent.Space.Read(mem.TLSBase+core.TLSCanaryOff, 8)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := child.TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	if cc != pc {
		t.Fatalf("child canary %x, want parent's %x", cc, pc)
	}
	cb, err := child.Space.Read(mem.TLSBase+core.TLSCanaryOff, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, pb) {
		t.Fatalf("child canary bytes %x, want %x", cb, pb)
	}
	// The fork hook refreshed the child's shadow pair — and that refresh
	// (a write to the COW-shared TLS segment) must not leak to the parent.
	pc0, pc1, err := parent.TLS().Shadow()
	if err != nil {
		t.Fatal(err)
	}
	cc0, cc1, err := child.TLS().Shadow()
	if err != nil {
		t.Fatal(err)
	}
	if pc0 == cc0 && pc1 == cc1 {
		t.Fatal("child shadow pair not refreshed by fork hook")
	}
	if pc0^pc1 != pc || cc0^cc1 != cc {
		t.Fatal("shadow invariant broken by COW fork")
	}
	if err := parent.TLS().Verify(); err != nil {
		t.Fatalf("parent TLS corrupted by child's fork hook: %v", err)
	}
}

// TestForkParentWriteInvisibleToChild is the other COW direction: the
// parent's post-fork writes must not appear in an already-forked child.
func TestForkParentWriteInvisibleToChild(t *testing.T) {
	k := New(22)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(srv.Parent())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Parent().Space.WriteU64(mem.DataBase+abi.GlobalsOff, 0xbeef); err != nil {
		t.Fatal(err)
	}
	v, err := child.Space.ReadU64(mem.DataBase + abi.GlobalsOff)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0xbeef {
		t.Fatal("parent's post-fork write visible in child")
	}
}

// TestForkFootprintConsistent keeps Table IV honest: a forked worker
// reports the same mapped footprint as its parent regardless of how many
// segments have been materialized.
func TestForkFootprintConsistent(t *testing.T) {
	k := New(23)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := srv.Parent().Space.Footprint()
	child, err := k.Fork(srv.Parent())
	if err != nil {
		t.Fatal(err)
	}
	if got := child.Space.Footprint(); got != want {
		t.Fatalf("child footprint %d, want %d", got, want)
	}
	if err := child.Deliver([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if st := k.Run(child); st != StateExited {
		t.Fatalf("child state %s: %s", st, child.CrashReason)
	}
	if got := child.Space.Footprint(); got != want {
		t.Fatalf("child footprint after request %d, want %d", got, want)
	}
}

// TestForkServerManyRequestsSharedText asserts the COW payoff: across many
// requests the parent's text segment backing is never copied — every worker
// executes the same bytes the parent decoded once.
func TestForkServerManyRequestsSharedText(t *testing.T) {
	k := New(24)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	text := srv.Parent().Space.Segment(".text")
	if text == nil {
		t.Fatal("no .text segment")
	}
	base := &text.Data[0]
	for i := 0; i < 8; i++ {
		out, err := srv.Handle([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if out.Crashed {
			t.Fatalf("request %d crashed: %s", i, out.CrashReason)
		}
	}
	if &text.Data[0] != base {
		t.Fatal("parent text segment was copied despite being read-only")
	}
}

// TestBudgetKillWrapsSharedSentinel pins the satellite fix: budget kills
// surface as vm.ErrBudget (aliased by kernel.ErrBudget) from the kernel
// loop, so facade classification is engine- and layer-independent.
func TestBudgetKillWrapsSharedSentinel(t *testing.T) {
	k := New(25)
	k.MaxInsts = 10
	p, err := k.Spawn(buildStatic(t, `
spin:
	jmp spin
`, "none"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := k.Run(p); st != StateCrashed {
		t.Fatalf("state %s, want crashed", st)
	}
	if !errors.Is(p.CrashErr, ErrBudget) {
		t.Fatalf("crash error %v does not wrap kernel.ErrBudget", p.CrashErr)
	}
	if !errors.Is(p.CrashErr, vm.ErrBudget) {
		t.Fatalf("crash error %v does not wrap vm.ErrBudget", p.CrashErr)
	}
}

func TestReplicaDeterministicDerivedKernels(t *testing.T) {
	k := New(77)
	k.MaxInsts = 1 << 20
	k.Engine = vm.EngineInterpreter
	// Draw from the base kernel first: ReplicaSeeded must not depend on
	// (or consume) the parent's entropy stream.
	_ = k.rand.Uint64()

	spawn := func(kk *Kernel) uint64 {
		p, err := kk.Spawn(buildStatic(t, exitProg, "ssp"), SpawnOpts{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.TLS().Canary()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	a, b := k.ReplicaSeeded(rng.Mix(77, 3)), k.ReplicaSeeded(rng.Mix(77, 3))
	if a.MaxInsts != k.MaxInsts || a.Engine != k.Engine {
		t.Fatalf("replica dropped configuration: %+v", a)
	}
	if ca, cb := spawn(a), spawn(b); ca != cb {
		t.Fatalf("same stream produced different canaries: %x vs %x", ca, cb)
	}
	if c0, c1 := spawn(k.ReplicaSeeded(rng.Mix(77, 0))), spawn(k.ReplicaSeeded(rng.Mix(77, 1))); c0 == c1 {
		t.Fatal("distinct streams produced the same canary")
	}
}

func TestForkServerCloseRetiresParent(t *testing.T) {
	k := New(11)
	srv, err := NewForkServer(k, buildStatic(t, serverProg, "ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if srv.Closed() {
		t.Fatal("server reports closed before Close")
	}
	srv.Close()
	srv.Close() // idempotent
	if !srv.Closed() {
		t.Fatal("server does not report closed")
	}
	if _, err := srv.Handle([]byte("ping")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Handle after Close: %v, want ErrServerClosed", err)
	}
	// The counters survive the teardown for post-mortem reads.
	if srv.Requests != 1 {
		t.Fatalf("requests = %d after Close, want 1", srv.Requests)
	}
}

func TestForkServerCloseRecyclesIntoNextBoot(t *testing.T) {
	// Serving, closing, and re-serving on one kernel must reach an
	// allocation steady state: each new parent's stack materializes from
	// the buffers its closed predecessor returned to the kernel pool.
	k := New(12)
	app := buildStatic(t, serverProg, "ssp")
	cycle := func() {
		srv, err := NewForkServer(k, app, SpawnOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Handle([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	cycle() // warm the pool
	warm := testing.AllocsPerRun(10, cycle)

	k2 := New(13)
	leaky := testing.AllocsPerRun(10, func() {
		srv, err := NewForkServer(k2, app, SpawnOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Handle([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		// No Close: the parent's buffers are garbage, never recycled.
	})
	if warm >= leaky {
		t.Fatalf("close/boot cycle allocates %.0f, no-close cycle %.0f — Close is not recycling", warm, leaky)
	}
}

// badWriteProg writes 4 bytes of .data to stdout, then asks write(2) for
// an impossible length (-1 as a signed count) from the same buffer.
const badWriteProg = `
_start:
	movi $1, %rax
	movi $1, %rdi
	movi $0x600000, %rsi
	movi $4, %rdx
	syscall
	movi $1, %rax
	movi $1, %rdi
	movi $0x600000, %rsi
	movi $0, %rdx
	subi $1, %rdx
	syscall
	movi $60, %rax
	syscall
`

// TestSysWriteAppendsAndFaults: write(2) appends the guest bytes to Stdout
// and a bad buffer crashes the writer with the very fault a read of that
// range raises — checked before any output buffer is sized from the
// guest's length.
func TestSysWriteAppendsAndFaults(t *testing.T) {
	k := New(19)
	p, err := k.Spawn(buildStatic(t, badWriteProg, "none"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := k.Run(p); st != StateCrashed {
		t.Fatalf("state %s, want crashed", st)
	}
	if !bytes.Equal(p.Stdout, []byte{0, 0, 0, 0}) {
		t.Fatalf("stdout % x, want the 4 bytes written before the fault", p.Stdout)
	}
	if !strings.Contains(p.CrashReason, "write from bad buffer") {
		t.Fatalf("crash reason %q", p.CrashReason)
	}
	_, want := p.Space.Read(mem.DataBase, -1)
	var fault *mem.Fault
	if !errors.As(p.CrashErr, &fault) || want == nil || fault.Error() != want.Error() {
		t.Fatalf("crash cause %v, want the read fault %v", p.CrashErr, want)
	}
}
