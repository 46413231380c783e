package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/abi"
	"repro/internal/apps"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// nginxVuln is the §VI-C attack target.
func nginxVuln(t *testing.T) apps.App {
	t.Helper()
	for _, a := range apps.VulnServers() {
		if a.Name == "nginx-vuln" {
			return a
		}
	}
	t.Fatal("nginx-vuln is not in the app suite")
	return apps.App{}
}

// vulnServer compiles nginx-vuln statically linked under scheme and boots
// it as a fork server.
func vulnServer(t *testing.T, seed uint64, scheme core.Scheme) *ForkServer {
	t.Helper()
	bin, err := cc.Compile(nginxVuln(t).Prog, cc.Options{Scheme: scheme, Linkage: abi.LinkStatic})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewForkServer(New(seed), bin, SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// smash overwrites the 16-byte request buffer and the canary above it.
var smash = bytes.Repeat([]byte{0xee}, apps.VulnServerBufSize+8)

// TestAllocBudgets pins the heap allocations of one fork-server request on
// the three hot paths. The worker is forked into the previous request's
// dead worker, so the fork itself allocates nothing; what remains is what
// escapes to the caller — a crashed worker's error and its message, a
// benign worker's response copy. The ceilings are a ratchet: each sits a
// few allocations, and its bytes ceiling about one small allocation, above
// what was measured when it was set (noted beside it). Lower a ceiling when
// the path gets cheaper; never raise one to make a change pass.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	cases := []struct {
		name   string
		scheme core.Scheme
		cov    bool
		req    []byte
		crash  bool
		budget float64
		bytes  float64
	}{
		// Measured 3 allocs, 120 B: the response the worker wrote before
		// its canary check fired, the CrashError, and its CrashReason
		// string.
		{"p-ssp crash", core.SchemePSSP, false, smash, true, 5, 160},
		// Measured 1 alloc, 8 B: the Response copy.
		{"ssp benign", core.SchemeSSP, false, nginxVuln(t).Request, false, 3, 32},
		// Measured 3 allocs, 144 B: a 1 KiB fuzz input smashes the frame,
		// so the same three as the P-SSP crash; coverage recording
		// allocates nothing.
		{"fuzz exec", core.SchemeSSP, true, bytes.Repeat([]byte{'A'}, 1024), true, 5, 192},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := vulnServer(t, 16, c.scheme)
			cov := srv.Coverage()
			if c.cov {
				cov = srv.EnableCoverage()
			}
			serve := func() {
				if cov != nil {
					cov.Reset()
				}
				out, err := srv.Handle(c.req)
				if err != nil {
					t.Fatal(err)
				}
				if out.Crashed != c.crash {
					t.Fatalf("crashed=%v (%s), want %v", out.Crashed, out.CrashReason, c.crash)
				}
			}
			serve() // the first request allocates the worker and its buffers
			got := testing.AllocsPerRun(200, serve)
			gotBytes := bytesPerRun(200, serve)
			t.Logf("%.1f allocs, %.0f B per request (budgets %.0f, %.0f B)", got, gotBytes, c.budget, c.bytes)
			if got > c.budget {
				t.Fatalf("%.1f allocs per request, budget %.0f", got, c.budget)
			}
			if gotBytes > c.bytes {
				t.Fatalf("%.0f B per request, budget %.0f B", gotBytes, c.bytes)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes
// allocated per call of f over runs calls, after one warm-up call, with
// GOMAXPROCS at 1 as AllocsPerRun sets it.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// outcomeCopy is a deep snapshot of an Outcome's caller-visible content.
type outcomeCopy struct {
	response []byte
	err      error
	errText  string
	reason   string
}

func snapshot(o Outcome) outcomeCopy {
	c := outcomeCopy{response: bytes.Clone(o.Response), err: o.CrashErr, reason: o.CrashReason}
	if o.CrashErr != nil {
		c.errText = o.CrashErr.Error()
	}
	return c
}

// parentState is the parked parent's canary state and a full stack image.
func parentState(t *testing.T, srv *ForkServer) (c, c0, c1 uint64, stack []byte) {
	t.Helper()
	p := srv.Parent()
	c, err := p.TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	if c0, c1, err = p.TLS().Shadow(); err != nil {
		t.Fatal(err)
	}
	if stack, err = p.Space.Read(mem.StackTop-mem.StackSize, mem.StackSize); err != nil {
		t.Fatal(err)
	}
	return c, c0, c1, stack
}

// TestRecycledWorkerIsolation serves a long mixed run of crashing and
// benign requests through one server — every one forked into the previous
// request's dead worker — and checks that recycling leaks in neither
// direction: no later request changes an Outcome already returned, and the
// parked parent's canary, shadow pair and stack stay bit-identical. It runs
// against nginx-vuln and against serverProg, whose response echoes the
// request, so a Response aliasing the worker's reused output buffer would
// show.
func TestRecycledWorkerIsolation(t *testing.T) {
	nginx, benign := vulnServer(t, 17, core.SchemePSSP), nginxVuln(t).Request
	echo, err := NewForkServer(New(17), buildStatic(t, serverProg, "p-ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*ForkServer{"nginx-vuln": nginx, "echo": echo} {
		t.Run(name, func(t *testing.T) {
			c, c0, c1, stack := parentState(t, srv)
			r := rng.New(5)
			var outs []Outcome
			var snaps []outcomeCopy
			crashes := 0
			for i := range 1000 {
				var req []byte
				switch r.Intn(3) {
				case 0:
					req = benign
				case 1:
					req = smash
				default:
					// Anything from an empty request to a deep stack
					// overrun.
					req = make([]byte, r.Intn(600))
					r.Bytes(req)
				}
				out, err := srv.Handle(req)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if out.Crashed {
					crashes++
				}
				outs = append(outs, out)
				snaps = append(snaps, snapshot(out))
				if i%100 == 99 {
					nc, n0, n1, nstack := parentState(t, srv)
					if nc != c || n0 != c0 || n1 != c1 {
						t.Fatalf("after %d requests the parent's canary state moved: %x/%x/%x, want %x/%x/%x", i+1, nc, n0, n1, c, c0, c1)
					}
					if !bytes.Equal(nstack, stack) {
						t.Fatalf("after %d requests the parent's stack changed", i+1)
					}
				}
			}
			if crashes == 0 || crashes == len(outs) {
				t.Fatalf("%d of %d requests crashed; the run must mix crashes and responses", crashes, len(outs))
			}
			for i, out := range outs {
				s := snaps[i]
				if !bytes.Equal(out.Response, s.response) || out.CrashErr != s.err || out.CrashReason != s.reason {
					t.Fatalf("outcome %d changed after later requests", i)
				}
				if out.CrashErr != nil && out.CrashErr.Error() != s.errText {
					t.Fatalf("outcome %d crash error changed: %q, was %q", i, out.CrashErr.Error(), s.errText)
				}
			}
		})
	}
}

// forkingServerProg reads the first 4 bytes of each request onto its
// stack and forks — a guest fork(2) from inside the served worker. The
// worker echoes those 4 bytes without writing its stack again, so its
// stack stays shared with the grandchild. The grandchild scribbles on the
// stack, reads the next 4 request bytes through the stdin it shares with
// the worker, and echoes all 8.
const forkingServerProg = `
_start:
	subi $64, %rsp
loop:
	movi $200, %rax
	syscall
	cmpi $0, %rax
	je done
	movi $0, %rax
	movi $0, %rdi
	mov %rsp, %rsi
	movi $4, %rdx
	syscall
	movi $57, %rax
	syscall
	cmpi $0, %rax
	jne echo
	store 16(%rsp), %rax
	movi $0, %rax
	movi $0, %rdi
	lea 4(%rsp), %rsi
	movi $4, %rdx
	syscall
	movi $1, %rax
	movi $1, %rdi
	mov %rsp, %rsi
	movi $8, %rdx
	syscall
	jmp loop
echo:
	movi $1, %rax
	movi $1, %rdi
	mov %rsp, %rsi
	movi $4, %rdx
	syscall
	jmp loop
done:
	movi $60, %rax
	movi $0, %rdi
	syscall
`

// TestGuestForkGrandchildSurvivesShellReuse: a worker that forks from
// inside its request leaves a grandchild sharing its memory and its stdin.
// Recycling that worker for the next requests must touch neither: when the
// grandchild finally runs, it still sees the request its parent was served.
func TestGuestForkGrandchildSurvivesShellReuse(t *testing.T) {
	k := New(18)
	srv, err := NewForkServer(k, buildStatic(t, forkingServerProg, "p-ssp"), SpawnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("request0")
	if out, err := srv.Handle(first); err != nil || out.Crashed || !bytes.Equal(out.Response, first[:4]) {
		t.Fatalf("first request: %+v, %v", out, err)
	}
	kids := k.TakeSpawned()
	if len(kids) != 1 {
		t.Fatalf("%d grandchildren, want 1", len(kids))
	}
	gc := kids[0]
	rsp := gc.CPU.GPR[isa.RSP]
	before, err := gc.Space.Read(rsp, 64)
	if err != nil {
		t.Fatal(err)
	}
	tlsBefore, err := gc.Space.Read(mem.TLSBase, mem.TLSSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		req := []byte(fmt.Sprintf("other-%02d", i))
		out, err := srv.Handle(req)
		if err != nil || out.Crashed || !bytes.Equal(out.Response, req[:4]) {
			t.Fatalf("request %d: %+v, %v", i, out, err)
		}
	}
	after, err := gc.Space.Read(rsp, 64)
	if err != nil {
		t.Fatal(err)
	}
	tlsAfter, err := gc.Space.Read(mem.TLSBase, mem.TLSSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || !bytes.Equal(tlsBefore, tlsAfter) {
		t.Fatal("reusing the worker's shell changed its grandchild's memory")
	}
	if st := k.Run(gc); st != StateExited {
		t.Fatalf("grandchild %s: %v", st, gc.CrashErr)
	}
	if !bytes.Equal(gc.Stdout, first) {
		t.Fatalf("grandchild echoed %q, want %q", gc.Stdout, first)
	}
}
