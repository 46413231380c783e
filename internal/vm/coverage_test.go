package vm

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// covProg is a small branchy loop: enough distinct edges to exercise the
// map, terminating in HLT.
func covProg() []isa.Inst {
	body := []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 0},
		{Op: isa.MOVRI, R1: isa.RCX, Imm: 32},
		{Op: isa.ADDRR, R1: isa.RAX, R2: isa.RCX}, // loop:
		{Op: isa.SUBRI, R1: isa.RCX, Imm: 1},
		{Op: isa.CMPRI, R1: isa.RCX, Imm: 0},
	}
	back := isa.Inst{Op: isa.JNE}
	back.Disp = int32(-(body[2].Len() + body[3].Len() + body[4].Len() + back.Len()))
	return append(body, back, isa.Inst{Op: isa.HLT})
}

// TestCoverageDoesNotPerturbExecution is the overhead guard of the coverage
// map: an instrumented run must execute the identical instruction stream —
// same final registers, same instruction and cycle counts — as an
// uninstrumented one, under every engine. Coverage observes execution, it
// never steers it.
func TestCoverageDoesNotPerturbExecution(t *testing.T) {
	for _, a := range allEngines {
		t.Run(a.name, func(t *testing.T) {
			plain := buildEngineCPU(t, a.engine, covProg())
			if err := a.run(plain, 1000); err != nil {
				t.Fatal(err)
			}
			instr := buildEngineCPU(t, a.engine, covProg())
			var cov CovMap
			instr.SetCoverage(&cov)
			if err := a.run(instr, 1000); err != nil {
				t.Fatal(err)
			}
			if a, b := snap(plain), snap(instr); a != b {
				t.Fatalf("coverage perturbed execution:\nplain:       %+v\ninstrumented: %+v", a, b)
			}
			if cov.Edges() == 0 {
				t.Fatal("instrumented run recorded no edges")
			}
		})
	}
}

// TestCoverageDisabledStepIsAllocationFree pins the disabled fast path: with
// no map installed, steady-state stepping through cached code must stay
// allocation-free — the same property BenchmarkStepLoop tracks — and the
// enabled path must stay allocation-free too (the map is preallocated).
func TestCoverageDisabledStepIsAllocationFree(t *testing.T) {
	run := func(t *testing.T, cov *CovMap) {
		t.Helper()
		c := buildEngineCPU(t, EngineCompiled, covProg())
		c.SetCoverage(cov)
		allocs := testing.AllocsPerRun(50, func() {
			c.RIP = mem.TextBase
			c.halted = false
			if err := c.Run(250); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("step loop allocates %.1f times per run, want 0", allocs)
		}
	}
	t.Run("disabled", func(t *testing.T) { run(t, nil) })
	t.Run("enabled", func(t *testing.T) { run(t, new(CovMap)) })
}

// TestCoverageDeterministicAndResettable asserts the map is a pure function
// of the executed path: two identical runs produce bit-identical maps, and
// Reset restores the empty map.
func TestCoverageDeterministicAndResettable(t *testing.T) {
	record := func() *CovMap {
		c := buildEngineCPU(t, EngineCompiled, covProg())
		var cov CovMap
		c.SetCoverage(&cov)
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		return &cov
	}
	a, b := record(), record()
	if a.hits != b.hits {
		t.Fatal("identical runs produced different coverage maps")
	}
	if a.Edges() == 0 {
		t.Fatal("no edges recorded")
	}
	a.Reset()
	if a.Edges() != 0 {
		t.Fatalf("Reset left %d edges", a.Edges())
	}
}

// TestCoverageDistinguishesPaths asserts different programs leave different
// footprints — the novelty signal corpus admission depends on.
func TestCoverageDistinguishesPaths(t *testing.T) {
	run := func(prog []isa.Inst) *CovMap {
		c := buildEngineCPU(t, EngineCompiled, prog)
		var cov CovMap
		c.SetCoverage(&cov)
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		return &cov
	}
	loop := run(covProg())
	straight := run([]isa.Inst{
		{Op: isa.MOVRI, R1: isa.RAX, Imm: 1},
		{Op: isa.HLT},
	})
	if loop.hits == straight.hits {
		t.Fatal("different programs produced identical coverage maps")
	}
}

// TestCoverageSharedAcrossFork models the fork-server loop: the map is
// installed once on the parent, the forked child's CPU copy shares it, and
// the child's execution records into it.
func TestCoverageSharedAcrossFork(t *testing.T) {
	parent := buildEngineCPU(t, EngineCompiled, covProg())
	var cov CovMap
	parent.SetCoverage(&cov)

	child := new(CPU)
	*child = *parent
	child.SetMem(parent.Mem.Clone())
	if child.Coverage() != &cov {
		t.Fatal("fork-style CPU copy did not share the coverage map")
	}
	if err := child.Run(1000); err != nil {
		t.Fatal(err)
	}
	if cov.Edges() == 0 {
		t.Fatal("child execution recorded nothing into the shared map")
	}
}

// TestCoverageRecordsCrashingPath asserts edges up to (and including) a
// faulting instruction are recorded — crash triage needs the path that led
// to the fault.
func TestCoverageRecordsCrashingPath(t *testing.T) {
	c := buildEngineCPU(t, EngineCompiled, []isa.Inst{
		{Op: isa.MOVRI, R1: isa.RBX, Imm: 0x100}, // unmapped
		{Op: isa.LOAD, R1: isa.RAX, Base: isa.RBX, Disp: 0},
		{Op: isa.HLT},
	})
	var cov CovMap
	c.SetCoverage(&cov)
	err := c.Run(100)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want crash, got %v", err)
	}
	if cov.Edges() < 2 {
		t.Fatalf("crashing run recorded %d edges, want >= 2", cov.Edges())
	}
}

// TestCoverageCounterSaturates pins the 8-bit counters at 255 instead of
// wrapping to 0 — a wrap would make a hot edge look unseen.
func TestCoverageCounterSaturates(t *testing.T) {
	var cov CovMap
	for i := 0; i < 300; i++ {
		cov.record(0, 0x40)
	}
	if got := cov.hits[0x40&(CovMapSize-1)]; got != 0xff {
		t.Fatalf("hot counter = %d, want saturated 255", got)
	}
}
