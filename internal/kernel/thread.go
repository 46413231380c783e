package kernel

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// This file models pthread_create, the second function the paper's shared
// library wraps (Section V-A). A thread shares its process's address space
// but receives its own stack and its own TLS block; glibc copies the process
// canary C into the new thread's TCB, and the wrapped pthread_create then
// refreshes the new thread's *shadow* canary only — same recipe as fork,
// same reason: C must stay stable so frames already on any stack keep
// verifying.

// threadStride separates successive threads' TLS and stack mappings.
const threadStride uint64 = 0x0010_0000

// SpawnThread creates a new thread of proc: shared address space, fresh
// stack and TLS (with C copied from the creator), entry at the function
// symbol named entry. The scheme's thread hooks run before the thread
// executes, as the wrapped pthread_create does.
//
// The returned *Process shares Space with proc but has its own CPU; run it
// with Kernel.Run like any process. tid must be unique per live thread of
// the process (1, 2, ...).
func (k *Kernel) SpawnThread(proc *Process, entry string, tid int) (*Process, error) {
	if tid < 1 {
		return nil, fmt.Errorf("kernel: thread id %d must be >= 1", tid)
	}
	sym, ok := proc.bin.Symbol(entry)
	if !ok {
		return nil, fmt.Errorf("kernel: thread entry %q not found", entry)
	}

	tlsBase := mem.TLSBase - uint64(tid)*threadStride
	stackTop := mem.StackTop - mem.StackSize - uint64(tid)*threadStride
	if _, err := proc.Space.Map(fmt.Sprintf("tls.t%d", tid), tlsBase, mem.TLSSize, mem.PermRead|mem.PermWrite); err != nil {
		return nil, fmt.Errorf("kernel: thread tls: %w", err)
	}
	if _, err := proc.Space.Map(fmt.Sprintf("stack.t%d", tid), stackTop-mem.StackSize, mem.StackSize, mem.PermRead|mem.PermWrite); err != nil {
		return nil, fmt.Errorf("kernel: thread stack: %w", err)
	}

	t := &Process{
		ID:     k.nextPID,
		Space:  proc.Space, // shared — this is what makes it a thread
		State:  StateRunning,
		Scheme: proc.Scheme,
		bin:    proc.bin,
	}
	proc.rand.ForkInto(&t.rand)
	k.nextPID++

	cpu := vm.New(proc.Space, &t.rand)
	cpu.Engine = proc.CPU.Engine
	cpu.RIP = sym.Addr
	cpu.TSCBase = k.now
	cpu.FSBase = tlsBase
	cpu.GPR[isa.RSP] = stackTop
	// Threads inherit the process-wide OWF key registers.
	cpu.GPR[isa.R12] = proc.CPU.GPR[isa.R12]
	cpu.GPR[isa.R13] = proc.CPU.GPR[isa.R13]
	t.sys = sysHandler{k: k, p: t}
	cpu.Sys = &t.sys
	t.CPU = cpu

	// The entry function returns into the pthread_exit analog.
	exit, ok := proc.bin.Symbol("__thread_exit")
	if !ok {
		return nil, fmt.Errorf("kernel: binary lacks the __thread_exit runtime stub")
	}
	cpu.GPR[isa.RSP] -= 8
	if err := proc.Space.WriteU64(cpu.GPR[isa.RSP], exit.Addr); err != nil {
		return nil, err
	}

	// glibc behaviour: the new TCB receives the same process canary C...
	c, err := proc.TLSAt(proc.CPU.FSBase).Canary()
	if err != nil {
		return nil, fmt.Errorf("kernel: thread canary copy: %w", err)
	}
	newTLS := t.TLSAt(tlsBase)
	if err := newTLS.SetCanary(c); err != nil {
		return nil, err
	}
	// ...and the wrapped pthread_create refreshes only the shadow state.
	if err := newTLS.RefreshShadow(&t.rand); err != nil {
		return nil, err
	}
	return t, nil
}
