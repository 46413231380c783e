package fuzz

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/vm"
)

// flatTarget survives every input with the same one-edge footprint, so
// after the seed no execution crashes or adds coverage: the steady state of
// a long fuzzing run.
type flatTarget struct{ cov vm.CovMap }

func (f *flatTarget) Execute(_ context.Context, input []byte) (Exec, *vm.CovMap, error) {
	f.cov.Reset()
	f.cov.Hit(1)
	return Exec{Cycles: uint64(len(input)), Insts: 1}, &f.cov, nil
}

// TestAllocBudgets pins the heap cost of one steady-state mutation
// execution: pick a parent, mutate, execute, merge coverage. It runs
// runShard at two budgets and divides the difference by the extra
// executions, so the shard's fixed set-up cancels out. The ceilings are a
// ratchet set just above what was measured when they were set (noted
// beside them). Lower them when the loop gets cheaper; never raise them to
// make a change pass.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	// Measured 0.00 allocs, 0 B per execution: the mutant is built in the
	// mutator's reused buffer and the merge walks the touched buckets.
	const allocCeiling, bytesCeiling = 0.05, 4.0
	const lo, hi = 2000, 10000
	ex := &flatTarget{}
	shard := func(execs int) func() {
		cfg, err := Config{Seeds: [][]byte{[]byte("GET / HTTP/1.1")}, Execs: execs, Shards: 1, Seed: 5}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			st, err := runShard(context.Background(), cfg, 0, ex, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Crashes != 0 || len(st.Corpus) != 1 {
				t.Fatalf("not a steady state: %d crashes, corpus %d", st.Crashes, len(st.Corpus))
			}
		}
	}
	allocs := (testing.AllocsPerRun(5, shard(hi)) - testing.AllocsPerRun(5, shard(lo))) / (hi - lo)
	perExec := (bytesPerRun(5, shard(hi)) - bytesPerRun(5, shard(lo))) / (hi - lo)
	t.Logf("%.3f allocs, %.1f B per execution (ceilings %.2f, %.0f B)", allocs, perExec, allocCeiling, bytesCeiling)
	if allocs > allocCeiling {
		t.Fatalf("%.3f allocs per execution, ceiling %.2f", allocs, allocCeiling)
	}
	if perExec > bytesCeiling {
		t.Fatalf("%.1f B per execution, ceiling %.0f B", perExec, bytesCeiling)
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
