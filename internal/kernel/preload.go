package kernel

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file models the paper's P-SSP shared library (Section V-A): a
// position-independent library preloaded into every protected program that
// (a) seeds the TLS canary state before main() runs — the setup_p-ssp
// constructor — and (b) wraps fork()/pthread_create() to refresh the child's
// TLS shadow canary.
//
// In the simulation the hooks run host-side at Spawn and Fork, which is
// semantically the same place: after the TLS is created or cloned and before
// guest code executes. The baselines' differing fork behaviours (RAF-SSP's
// canary renewal, DynaGuard's CAB walk, DCR's list walk) are modelled here
// too, so every Table I row runs under its intended semantics.

// applyStartupHooks is the constructor: seed the TLS canary C and the shadow
// pair, initialize per-scheme runtime state.
func applyStartupHooks(p *Process) error {
	if err := p.TLS().Seed(&p.rand); err != nil {
		return err
	}
	switch p.Scheme {
	case core.SchemePSSPOWF:
		// The constructor generates the 128-bit AES key and parks it in the
		// reserved callee-save registers r12/r13 (the paper's global
		// register variables). It never touches overflowable memory.
		key := core.NewOWFKey(&p.rand)
		p.CPU.GPR[isa.R13] = key.Lo
		p.CPU.GPR[isa.R12] = key.Hi
	case core.SchemeDCR:
		// The DCR list head starts at the above-all-frames sentinel.
		if p.Space.Segment("data") == nil && p.Space.Segment(".data") == nil {
			return fmt.Errorf("kernel: DCR preload needs a data section")
		}
		if err := p.Space.WriteU64(mem.DataBase+abi.DCRHeadOff, abi.DCRListEnd); err != nil {
			return err
		}
	}
	return nil
}

// applyForkHooks is the wrapped fork(): runs in the child only, after the
// address space (TLS included) was cloned from the parent.
func applyForkHooks(child *Process) error {
	switch child.Scheme {
	case core.SchemePSSP:
		// The paper's core move: refresh the *shadow* pair, leave the TLS
		// canary C untouched. Inherited frames still verify; new frames use
		// an independent pair.
		return child.TLS().RefreshShadow(&child.rand)

	case core.SchemeRAFSSP:
		// Renew-after-fork: replace C itself. Deliberately reproduces the
		// correctness bug — frames inherited from the parent no longer pass
		// their epilogue checks.
		return child.TLS().SetCanary(child.rand.Uint64())

	case core.SchemeDynaGuard:
		return dynaGuardForkHook(child)

	case core.SchemeDCR:
		return dcrForkHook(child)

	default:
		// SSP, none, and the NT/LV/OWF/GB extensions need no fork work —
		// that is P-SSP-NT's deployment advantage.
		return nil
	}
}

// dynaGuardForkHook renews the TLS canary and rewrites every live stack
// canary recorded in the canary address buffer, keeping the child
// consistent (Petsios et al.).
func dynaGuardForkHook(child *Process) error {
	newC := child.rand.Uint64()
	count, err := child.Space.ReadU64(mem.DataBase + abi.DynaGuardCountOff)
	if err != nil {
		return fmt.Errorf("kernel: dynaguard fork: %w", err)
	}
	if count > abi.DynaGuardMaxEntries {
		return fmt.Errorf("kernel: dynaguard CAB corrupt: count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		slotAddrAddr := mem.DataBase + abi.DynaGuardBufOff + 8*i
		slotAddr, err := child.Space.ReadU64(slotAddrAddr)
		if err != nil {
			return err
		}
		if err := child.Space.WriteU64(slotAddr, newC); err != nil {
			return fmt.Errorf("kernel: dynaguard rewrite slot 0x%x: %w", slotAddr, err)
		}
	}
	return child.TLS().SetCanary(newC)
}

// dcrForkHook renews the high bits of the TLS canary and walks the in-stack
// linked list of canaries, re-randomizing each while preserving the embedded
// offsets (Hawkins et al.).
func dcrForkHook(child *Process) error {
	oldC, err := child.TLS().Canary()
	if err != nil {
		return err
	}
	newC := child.rand.Uint64()&abi.DCRHighMask | oldC&abi.DCRDeltaMask
	cur, err := child.Space.ReadU64(mem.DataBase + abi.DCRHeadOff)
	if err != nil {
		return fmt.Errorf("kernel: dcr fork: %w", err)
	}
	for steps := 0; cur != abi.DCRListEnd; steps++ {
		if steps > 1<<16 {
			return fmt.Errorf("kernel: dcr list does not terminate (head chain loop)")
		}
		v, err := child.Space.ReadU64(cur)
		if err != nil {
			return fmt.Errorf("kernel: dcr walk at 0x%x: %w", cur, err)
		}
		delta := v & abi.DCRDeltaMask
		if err := child.Space.WriteU64(cur, newC&abi.DCRHighMask|delta); err != nil {
			return err
		}
		cur += delta << 3
	}
	return child.TLS().SetCanary(newC)
}
