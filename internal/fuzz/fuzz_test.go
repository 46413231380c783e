package fuzz

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/vm"
)

// fakeTarget is a synthetic victim: inputs longer than bufLen "overflow" and
// crash (canary-detected at a fixed PC), shorter inputs survive with
// coverage that depends on the input length bucket — a controllable novelty
// signal. It is a pure function of the input, so shards stay deterministic.
type fakeTarget struct {
	bufLen int
	cov    vm.CovMap
}

func (f *fakeTarget) Execute(_ context.Context, input []byte) (Exec, *vm.CovMap, error) {
	f.cov.Reset()
	// Edge footprint: a base path plus one bucket per power-of-two length.
	f.cov.Hit(1)
	for l := len(input); l > 0; l >>= 1 {
		f.cov.Hit(uint16(16 + l%251))
	}
	ex := Exec{Cycles: uint64(100 + len(input)), Insts: uint64(10 + len(input))}
	if len(input) > f.bufLen {
		ex.Crashed = true
		ex.Detected = true
		ex.CrashPC = 0x4242
		ex.Kind = "abort (stack smashing detected)"
	}
	return ex, &f.cov, nil
}

func fakeBoot(bufLen int) Boot {
	return func(context.Context, int) (Executor, error) {
		return &fakeTarget{bufLen: bufLen}, nil
	}
}

func TestMutatorDeterministic(t *testing.T) {
	gen := func() [][]byte {
		m := &mutator{r: rng.NewStream(7, 0), dict: [][]byte{[]byte("tok")}, max: 64}
		parent := []byte("GET /")
		corpus := [][]byte{parent, []byte("PING")}
		var out [][]byte
		for i := 0; i < 200; i++ {
			// A mutant lives in the mutator's reused buffer: keep a copy.
			out = append(out, append([]byte(nil), m.mutate(parent, corpus)...))
		}
		return out
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same stream produced different mutants")
	}
	grew := false
	for _, in := range a {
		if len(in) > 64 {
			t.Fatalf("mutant length %d exceeds cap 64", len(in))
		}
		if len(in) == 0 {
			t.Fatal("empty mutant")
		}
		if len(in) > 5 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no mutation ever grew the input — overflows would be unreachable")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) *Report {
		t.Helper()
		rep, err := Run(ctx, Config{
			Label:   "fake",
			Seeds:   [][]byte{[]byte("GET /")},
			Execs:   400,
			Shards:  4,
			Workers: workers,
			Seed:    2018,
		}, fakeBoot(16))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	if base.Execs == 0 || base.Edges == 0 {
		t.Fatalf("empty run: %+v", base)
	}
	if len(base.Findings) == 0 {
		t.Fatal("fuzzer never crashed the fake overflow target")
	}
	for _, w := range []int{4, 16} {
		if got := run(w); !reflect.DeepEqual(base, got) {
			t.Fatalf("report differs at %d workers:\n1:  %+v\n%d: %+v", w, base, w, got)
		}
	}
}

func TestTriageDedupesAndMinimizes(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("GET /")},
		Execs:  600,
		Shards: 2,
		Seed:   1,
	}, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	// One crash site (pc, kind, detected) — one finding, however many of
	// the 600 mutants crashed.
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1 (dedupe by crash site)", len(rep.Findings))
	}
	f := rep.Findings[0]
	if !f.Detected || f.CrashPC != 0x4242 {
		t.Fatalf("finding misclassified: %+v", f)
	}
	if rep.Crashes < 2 {
		t.Fatalf("crashes = %d, want several (dedupe must not hide the count)", rep.Crashes)
	}
	// Minimization: the shortest input that still crashes is bufLen+1, so
	// OverflowLen recovers bufLen exactly.
	if len(f.Minimized) != 17 {
		t.Fatalf("minimized length = %d, want 17", len(f.Minimized))
	}
	if f.OverflowLen() != 16 {
		t.Fatalf("OverflowLen = %d, want 16", f.OverflowLen())
	}
	// Normalization: minimized bytes are the canonical filler.
	if !bytes.Equal(f.Minimized[:16], bytes.Repeat([]byte{minFiller}, 16)) {
		t.Fatalf("minimized input not normalized: %q", f.Minimized)
	}
	if rep.ExecsToFirstCrash == 0 || rep.ExecsToFirstCrash > rep.Execs {
		t.Fatalf("ExecsToFirstCrash = %d out of range", rep.ExecsToFirstCrash)
	}
}

// canaryTarget models SSP's detection: an overflow past bufLen crashes only
// if it changes one of the canary bytes stored above the buffer, so an
// overflow byte equal to the canary byte it overwrites goes unnoticed.
type canaryTarget struct {
	bufLen int
	canary []byte
	cov    vm.CovMap
}

func (f *canaryTarget) Execute(_ context.Context, input []byte) (Exec, *vm.CovMap, error) {
	f.cov.Reset()
	f.cov.Hit(1)
	ex := Exec{Cycles: uint64(100 + len(input)), Insts: uint64(10 + len(input))}
	for i, b := range input[min(len(input), f.bufLen):] {
		if i < len(f.canary) && b != f.canary[i] {
			ex.Crashed = true
			ex.Detected = true
			ex.CrashPC = 0x4242
			ex.Kind = "abort (stack smashing detected)"
		}
	}
	return ex, &f.cov, nil
}

func TestMinimizeRetrimsAfterNormalizing(t *testing.T) {
	// The crashing seed overwrites the first canary byte with its own value
	// and only the second one with a different value, so the first tail
	// trim must stop at bufLen+2. Normalizing the matching byte to the
	// filler makes bufLen+1 bytes crash, and minimization must find that.
	const bufLen = 16
	canary := []byte{0x5a, 0x17}
	seed := append(bytes.Repeat([]byte{minFiller}, bufLen), canary[0], ^canary[1])
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{seed},
		Execs:  1,
		Shards: 1,
		Seed:   1,
	}, func(context.Context, int) (Executor, error) {
		return &canaryTarget{bufLen: bufLen, canary: canary}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || !bytes.Equal(rep.Findings[0].Input, seed) {
		t.Fatalf("findings = %+v, want the crashing seed alone", rep.Findings)
	}
	f := rep.Findings[0]
	if len(f.Minimized) != bufLen+1 {
		t.Fatalf("minimized length = %d, want %d: %q", len(f.Minimized), bufLen+1, f.Minimized)
	}
	if f.OverflowLen() != bufLen {
		t.Fatalf("OverflowLen = %d, want %d", f.OverflowLen(), bufLen)
	}
}

func TestCoverageNoveltyGrowsCorpus(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("GET /")},
		Execs:  300,
		Shards: 1,
		Seed:   3,
	}, fakeBoot(1<<20)) // effectively uncrashable: pure coverage search
	if err != nil {
		t.Fatal(err)
	}
	// The fake target's coverage varies with input length, so novelty
	// admission must have grown the corpus beyond the seed.
	if rep.CorpusSize <= 1 {
		t.Fatalf("corpus stayed at %d entries — novelty admission dead", rep.CorpusSize)
	}
	if rep.CorpusSize == rep.Execs {
		t.Fatal("every input admitted — novelty gating dead")
	}
	if len(rep.CorpusHashes) != rep.CorpusSize {
		t.Fatalf("corpus hashes %d != size %d", len(rep.CorpusHashes), rep.CorpusSize)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("uncrashable target produced findings: %+v", rep.Findings)
	}
}

func TestRunCancellationReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	boot := func(context.Context, int) (Executor, error) {
		return executorFunc(func(c context.Context, input []byte) (Exec, *vm.CovMap, error) {
			calls++
			if calls > 50 {
				cancel()
			}
			if err := c.Err(); err != nil {
				return Exec{}, nil, err
			}
			ft := fakeTarget{bufLen: 1 << 20}
			return ft.Execute(c, input)
		}), nil
	}
	rep, err := Run(ctx, Config{
		Seeds:  [][]byte{[]byte("x")},
		Execs:  100000,
		Shards: 1,
		Seed:   1,
	}, boot)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Execs == 0 || rep.Execs >= 100000 {
		t.Fatalf("partial report execs = %+v", rep)
	}
}

func TestRunBootFailureAborts(t *testing.T) {
	boom := errors.New("boom")
	rep, err := Run(context.Background(), Config{
		Seeds:  [][]byte{[]byte("x")},
		Execs:  64,
		Shards: 2,
	}, func(context.Context, int) (Executor, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boot failure", err)
	}
	if rep == nil {
		t.Fatal("no partial report on boot failure")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, fakeBoot(4)); err == nil {
		t.Fatal("empty seed corpus accepted")
	}
	if _, err := Run(context.Background(), Config{Seeds: [][]byte{{}}}, fakeBoot(4)); err == nil {
		t.Fatal("empty seed input accepted")
	}
}

// executorFunc adapts a function to the Executor interface.
type executorFunc func(ctx context.Context, input []byte) (Exec, *vm.CovMap, error)

func (f executorFunc) Execute(ctx context.Context, input []byte) (Exec, *vm.CovMap, error) {
	return f(ctx, input)
}

func TestProgressStreamsExecsAndFindings(t *testing.T) {
	// Per-execution ticks respect ProgressEvery, shard completions always
	// fire, counters are monotone, and the callback leaves the
	// deterministic report bit-identical.
	cfg := Config{
		Label:         "fake",
		Seeds:         [][]byte{[]byte("GET /")},
		Execs:         400,
		Shards:        4,
		Workers:       4,
		Seed:          2018,
		ProgressEvery: 32,
	}
	var snaps []Progress
	cfg.Progress = func(p Progress) { snaps = append(snaps, p) }
	rep, err := Run(context.Background(), cfg, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Execs < snaps[i-1].Execs || snaps[i].ShardsDone < snaps[i-1].ShardsDone {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	last := snaps[len(snaps)-1]
	if last.ShardsDone != cfg.Shards || last.Shards != cfg.Shards {
		t.Fatalf("final snapshot %+v: want all %d shards done", last, cfg.Shards)
	}
	// Execs agree exactly; Crashes and Findings are per-shard running
	// figures — minimization probes included, pre-dedup — so they bound
	// the report's tallies from above.
	if last.Execs != rep.Execs || last.Crashes < rep.Crashes || last.Findings < len(rep.Findings) {
		t.Fatalf("final snapshot %+v disagrees with report (%d execs, %d crashes, %d findings)",
			last, rep.Execs, rep.Crashes, len(rep.Findings))
	}
	cfg.Progress, cfg.ProgressEvery = nil, 0
	silent, err := Run(context.Background(), cfg, fakeBoot(16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, silent) {
		t.Fatal("attaching a progress callback changed the deterministic report")
	}
}

func TestNilProgressMeterIsFree(t *testing.T) {
	// Disabled metering is the nil receiver: the per-execution hot path
	// must not allocate.
	var m *progressMeter
	if n := testing.AllocsPerRun(100, func() {
		m.exec(true)
		m.advance(1, 1, 1)
		m.shardDone()
	}); n != 0 {
		t.Fatalf("nil meter allocated %.0f times per exec", n)
	}
}

// TestCorpusHoldsExecutedInputs: the mutator reuses one buffer for every
// mutant, so the engine must copy an input it admits. Every corpus entry
// must still read as an input the target executed once the shard is done.
func TestCorpusHoldsExecutedInputs(t *testing.T) {
	seen := make(map[string]bool)
	ft := &fakeTarget{bufLen: 1 << 20}
	ex := executorFunc(func(ctx context.Context, input []byte) (Exec, *vm.CovMap, error) {
		seen[string(input)] = true
		return ft.Execute(ctx, input)
	})
	cfg, err := Config{Seeds: [][]byte{[]byte("GET /")}, Execs: 3000, Shards: 1, Seed: 3}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runShard(context.Background(), cfg, 0, ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Corpus) < 3 {
		t.Fatalf("corpus of %d admits too few inputs to check", len(st.Corpus))
	}
	for i, in := range st.Corpus {
		if !seen[string(in)] {
			t.Fatalf("corpus entry %d (%d bytes) is no executed input: overwritten after admission", i, len(in))
		}
	}
}
