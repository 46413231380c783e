package vm

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
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

// TestCoverageTouchedMatchesDense checks the sparse bookkeeping against a
// dense model over random edge streams: after each stream the touched list
// holds exactly the nonzero buckets, each once; every counter equals its
// hit count saturated at 0xff; and after Reset all 64 KiB read zero,
// checked bucket by bucket. The streams mix uniform edges with a small hot
// set, so both sparse first hits and saturated counters occur, and the
// same map is reused across rounds as a fuzzing shard reuses it.
func TestCoverageTouchedMatchesDense(t *testing.T) {
	r := rng.New(18)
	var cov CovMap
	saturated := 0
	for round := 0; round < 40; round++ {
		var want [CovMapSize]int
		hot := make([]uint64, 1+r.Intn(32))
		for i := range hot {
			hot[i] = r.Uint64()
		}
		for n := r.Intn(4096); n > 0; n-- {
			prev, pc := r.Uint64(), r.Uint64()
			if r.Intn(2) == 0 {
				prev, pc = 0, hot[r.Intn(len(hot))]
			}
			cov.record(prev, pc)
			want[(prev^pc)&(CovMapSize-1)]++
		}
		seen := make(map[uint16]bool)
		for _, i := range cov.Touched() {
			if seen[i] {
				t.Fatalf("round %d: bucket %d listed twice", round, i)
			}
			seen[i] = true
		}
		nonzero := 0
		for i, n := range want {
			if n > 0 {
				nonzero++
				if !seen[uint16(i)] {
					t.Fatalf("round %d: hit bucket %d missing from Touched", round, i)
				}
			}
			if got, exp := cov.Count(uint16(i)), byte(min(n, 0xff)); got != exp {
				t.Fatalf("round %d: bucket %d count %d, want %d", round, i, got, exp)
			}
			if n > 0xff {
				saturated++
			}
		}
		if len(seen) != nonzero || cov.Edges() != nonzero {
			t.Fatalf("round %d: touched %d, edges %d, nonzero buckets %d", round, len(seen), cov.Edges(), nonzero)
		}
		cov.Reset()
		for i := range CovMapSize {
			if cov.Count(uint16(i)) != 0 {
				t.Fatalf("round %d: bucket %d nonzero after Reset", round, i)
			}
		}
		if cov.Edges() != 0 || len(cov.Touched()) != 0 {
			t.Fatalf("round %d: Reset left %d touched buckets", round, len(cov.Touched()))
		}
	}
	if saturated == 0 {
		t.Fatal("no stream saturated a counter")
	}
}
