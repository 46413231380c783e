package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/binfmt"
	"repro/internal/fuzz"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/pssp"
)

// The fuzz workload is psspfuzz at its defaults against SSP nginx-vuln:
// one job is one fuzzing run of fuzzExecs mutations over fuzzShards.
const (
	fuzzApp    = "nginx-vuln"
	fuzzExecs  = 4096
	fuzzShards = 4
	// fuzzVictimStream and victimMaxInsts mirror Machine.Fuzz's shard
	// victim derivation and pssp's default instruction budget; the traced
	// run's byte-identity check fails if either drifts.
	fuzzVictimStream = 3
	victimMaxInsts   = 256 << 20
)

type fuzzBench struct {
	img     *pssp.Image
	bin     *binfmt.Binary // img's binary, for booting shard victims on the kernel directly
	request []byte         // the app's built-in request: Machine.Fuzz's seed corpus
}

func setupFuzz(ctx context.Context, _ uint64) (runner, time.Duration, error) {
	t0 := time.Now()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemeSSP)).CompileApp(fuzzApp)
	compile := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if err := bootCheck(ctx, img); err != nil {
		return nil, 0, err
	}
	bin, err := binfmt.Unmarshal(img.Marshal())
	if err != nil {
		return nil, 0, err
	}
	app, ok := pssp.App(fuzzApp)
	if !ok || app.Request == nil {
		return nil, 0, fmt.Errorf("no built-in request for %s", fuzzApp)
	}
	return &fuzzBench{img: img, bin: bin, request: app.Request}, compile, nil
}

func (b *fuzzBench) close() {}

func (b *fuzzBench) config(seed uint64, run int) pssp.FuzzConfig {
	return pssp.FuzzConfig{
		Execs:   fuzzExecs,
		Shards:  fuzzShards,
		Workers: runtime.NumCPU(),
		Seed:    jobSeed(seed, uint64(run)),
	}
}

// checkFuzzReport holds a report to the known answer: nginx-vuln's 16-byte
// stack buffer sits right below the 8-byte canary, so the fuzzer must
// report a canary-detected crash whose minimized input is the buffer plus
// one to eight canary bytes. Minimal is 17 bytes; unminimal reports the
// rarer longer result, which the greedy tail-trim settles on when a
// mutated byte happens to equal the canary byte it overwrites.
func checkFuzzReport(rep *pssp.FuzzReport, seed uint64) (unminimal bool, err error) {
	const buf = pssp.VulnServerBufSize
	var lens []int
	for _, f := range rep.Findings {
		if !f.Detected {
			continue
		}
		switch n := len(f.Minimized); {
		case n == buf+1:
			return false, nil
		case n > buf+1 && n <= buf+8:
			unminimal = true
		}
		lens = append(lens, len(f.Minimized))
	}
	if unminimal {
		return true, nil
	}
	return false, fmt.Errorf("fuzz seed %d: no canary-detected finding minimized to %d..%d bytes (detected: %v of %d findings)",
		seed, buf+1, buf+8, lens, len(rep.Findings))
}

// tracedFuzz rebuilds Machine.Fuzz from exported pieces — fuzz.Run with a
// timed Boot and a timed Executor — so victim boot, executions and the
// engine's own work (mutation, coverage scan, triage) get separate spans.
// Its report must be byte-identical to Machine.Fuzz's.
func (b *fuzzBench) tracedFuzz(ctx context.Context, tr *Tracer, parent int, cfg pssp.FuzzConfig, out *runOutcome) (*pssp.FuzzReport, error) {
	var (
		mu    sync.Mutex
		execs []*timedExecutor
	)
	boot := func(ctx context.Context, shard int) (fuzz.Executor, error) {
		sp := tr.Begin("fuzz.shard", parent)
		bs := tr.Begin("kernel.boot", sp)
		k := kernel.New(rng.Mix(rng.Mix(cfg.Seed, uint64(shard)), fuzzVictimStream))
		k.MaxInsts = victimMaxInsts
		var srv *kernel.ForkServer
		p, err := k.Spawn(b.bin, kernel.SpawnOpts{})
		if err == nil {
			srv, err = kernel.ServeProcess(ctx, k, p)
		}
		tr.End(bs)
		if err != nil {
			return nil, err
		}
		ex := &timedExecutor{tr: tr, srv: srv, cov: srv.EnableCoverage(), span: sp}
		mu.Lock()
		execs = append(execs, ex)
		mu.Unlock()
		return ex, nil
	}
	rep, err := fuzz.Run(ctx, fuzz.Config{
		Label:   b.img.Name(),
		Seeds:   [][]byte{b.request},
		Execs:   cfg.Execs,
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
	}, boot)
	for _, ex := range execs {
		tr.EndAt(ex.span, ex.last)
		tr.AddLeaves(ex.span, ex.execs, ex.execNs)
		out.request(ex.execs, ex.reqNs)
		out.victim(0, ex.srv.Parent().Space.Footprint())
	}
	if err != nil {
		return nil, err
	}
	out.victim(rep.Insts, 0)
	return rep, nil
}

// timedExecutor is Machine.Fuzz's shard executor with every execution
// timed: reset the edge map, serve the input to a fresh worker, classify.
type timedExecutor struct {
	tr   *Tracer
	srv  *kernel.ForkServer
	cov  *vm.CovMap
	span int

	execs         int
	execNs, reqNs int64
	last          int64 // end of the latest execution, on the tracer's clock
}

// Execute implements fuzz.Executor.
func (e *timedExecutor) Execute(ctx context.Context, input []byte) (fuzz.Exec, *vm.CovMap, error) {
	t0 := e.tr.Now()
	e.cov.Reset()
	t1 := e.tr.Now()
	out, err := e.srv.HandleContext(ctx, input)
	e.reqNs += e.tr.Now() - t1
	defer func() {
		e.last = e.tr.Now()
		e.execNs += e.last - t0
		e.execs++
	}()
	if err != nil {
		return fuzz.Exec{}, nil, err
	}
	ex := fuzz.Exec{Cycles: out.Cycles, Insts: out.Insts}
	if out.Crashed {
		ex.Crashed = true
		ex.Detected = errors.Is(out.CrashErr, kernel.ErrStackSmash)
		ex.Kind = out.CrashReason
		var ce *vm.CrashError
		if errors.As(out.CrashErr, &ce) {
			ex.CrashPC = ce.RIP
			ex.Kind = ce.Reason
		}
	}
	return ex, e.cov, nil
}

func (b *fuzzBench) run(ctx context.Context, p runParams) (*runOutcome, error) {
	out := newRunOutcome(runtime.NumCPU())
	var traced [][]byte
	err := out.loop(p, func(run int) error {
		cfg := b.config(p.seed, run)
		var rep *pssp.FuzzReport
		var err error
		if p.tr != nil {
			root := p.tr.Begin("fuzz.run", -1)
			rep, err = b.tracedFuzz(ctx, p.tr, root, cfg, out)
			p.tr.End(root)
		} else {
			rep, err = pssp.NewMachine().Fuzz(ctx, b.img, cfg)
		}
		if err != nil {
			return err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		unminimal, err := checkFuzzReport(rep, cfg.Seed)
		if err != nil {
			out.fail(err)
		}
		if unminimal {
			out.unminimal++
		}
		out.ops.job(rep.Execs, err != nil)
		out.extraExecs += rep.Execs - rep.MutationExecs
		out.digest(run, raw)
		if p.tr != nil {
			traced = append(traced, raw)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The traced runs' reports must equal the facade's, byte for byte.
	for run, got := range traced {
		rep, err := pssp.NewMachine().Fuzz(ctx, b.img, b.config(p.seed, run))
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if string(want) != string(got) {
			out.fail(fmt.Errorf("fuzz run %d: traced report differs from Machine.Fuzz's", run))
			out.ops.failAll()
		}
	}
	return out, nil
}
