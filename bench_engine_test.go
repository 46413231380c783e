package repro

// Micro-benchmarks of the execution engine (decode-once refactor), the
// Monte-Carlo campaign engine, the load generator and the fuzzer. Run them
// with
//
//	go test -run '^$' -bench 'ForkClone|StepLoop|ForkServerRequest|Campaign|Loadgen|Fuzz' -benchmem .
//
// BENCH_engine.json keeps earlier single-sample runs of them as frozen
// history; perfbench/ is the repeated-sample timing harness. The
// "deep" / "interpreter" sub-benchmarks measure the pre-refactor execution
// model (eager fork copies, decode-each-step) on today's code, so every run
// re-derives the speedup the default engine is expected to hold.

import (
	"context"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/apps"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/pssp"
)

var benchEngines = []struct {
	name   string
	engine pssp.Engine
}{
	{"interpreter", pssp.EngineInterpreter},
	{"compiled", pssp.EngineCompiled},
}

// parkedServerSpace builds the nginx analog's parent process, boots it to
// accept, and returns its address space — the exact space the fork-per-
// request oracle clones for every attack probe.
func parkedServerSpace(b *testing.B) *mem.Space {
	b.Helper()
	var app apps.App
	for _, a := range apps.WebServers() {
		if a.Name == "nginx" {
			app = a
		}
	}
	if app.Prog == nil {
		b.Fatal("no nginx app")
	}
	bin, err := cc.Compile(app.Prog, cc.Options{Scheme: core.SchemePSSP, Linkage: abi.LinkStatic})
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.New(1)
	srv, err := kernel.NewForkServer(k, bin, kernel.SpawnOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return srv.Parent().Space
}

// BenchmarkForkClone measures the memory half of fork(2): copy-on-write
// (the engine's path) against the pre-refactor eager deep copy.
func BenchmarkForkClone(b *testing.B) {
	sp := parkedServerSpace(b)
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sp.Clone() == nil {
				b.Fatal("nil clone")
			}
		}
	})
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sp.CloneDeep() == nil {
				b.Fatal("nil clone")
			}
		}
	})
}

// BenchmarkStepLoop measures the raw dispatch loop: one op is a full run of
// the 403.gcc SPEC analog (compile hoisted out), so ns/op divided by the
// guest-insts metric is the per-instruction cost of each engine.
func BenchmarkStepLoop(b *testing.B) {
	ctx := context.Background()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemePSSP)).CompileApp("403.gcc")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := pssp.NewMachine(pssp.WithSeed(1), pssp.WithEngine(e.engine)).Run(ctx, img)
				if err != nil {
					b.Fatal(err)
				}
				insts = res.Insts
			}
			b.ReportMetric(float64(insts), "guest-insts/op")
		})
	}
}

// BenchmarkForkServerRequest measures the fork-per-request oracle end to
// end — COW fork, shared code cache, request execution, teardown — the loop
// the byte-by-byte attack multiplies by thousands of probes.
func BenchmarkForkServerRequest(b *testing.B) {
	ctx := context.Background()
	app, ok := pssp.App("nginx")
	if !ok {
		b.Fatal("no nginx app")
	}
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			m := pssp.NewMachine(pssp.WithSeed(1), pssp.WithScheme(pssp.SchemePSSP), pssp.WithEngine(e.engine))
			srv, err := m.Pipeline().CompileApp("nginx").Serve(ctx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := srv.Handle(ctx, app.Request)
				if err != nil {
					b.Fatal(err)
				}
				if out.Crashed() {
					b.Fatal(out.Err)
				}
			}
		})
	}
}

// BenchmarkLoadgen measures the virtual-time load-generation engine's
// request throughput at 1 vs 4 shard executors: one op is a full open-loop
// Poisson workload of 64 benign requests against P-SSP-compiled nginx
// replicas (4 shards; compile hoisted out). The requests/sec metric is the
// headline, and a fixed seed keeps the reports bit-identical across both
// sub-benchmarks.
func BenchmarkLoadgen(b *testing.B) {
	ctx := context.Background()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemePSSP)).CompileApp("nginx")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"workers4", 4}} {
		workers := cfg.workers
		b.Run(cfg.name, func(b *testing.B) {
			m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemePSSP))
			b.ReportAllocs()
			b.ResetTimer()
			var requests int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep, err := m.LoadTest(ctx, img, pssp.WorkloadConfig{
					Arrivals:      pssp.ArrivalsOpenPoisson,
					RatePerMcycle: 100,
					Requests:      64,
					Shards:        4,
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Requests != 64 {
					b.Fatalf("served %d/64", rep.Requests)
				}
				requests += rep.Requests
			}
			b.ReportMetric(float64(requests)/time.Since(start).Seconds(), "requests/sec")
		})
	}
}

// BenchmarkFuzz measures the coverage-guided fuzzer's execution throughput
// at 1 vs 4 shard executors: one op is a full fuzzing run of 256 mutations
// against SSP-compiled nginx-vuln victims (4 shards, compile hoisted out) —
// fork, coverage-instrumented request, per-request map scan, triage. The
// execs/sec metric is the headline, and a fixed seed keeps the reports
// bit-identical across both sub-benchmarks.
func BenchmarkFuzz(b *testing.B) {
	ctx := context.Background()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemeSSP)).CompileApp("nginx-vuln")
	if err != nil {
		b.Fatal(err)
	}
	// Both run the default engine.
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"workers4", 4},
	} {
		workers := cfg.workers
		b.Run(cfg.name, func(b *testing.B) {
			m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP))
			b.ReportAllocs()
			b.ResetTimer()
			var execs int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rep, err := m.Fuzz(ctx, img, pssp.FuzzConfig{
					Execs:   256,
					Shards:  4,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Findings) == 0 {
					b.Fatal("fuzzer found nothing")
				}
				execs += rep.Execs
			}
			b.ReportMetric(float64(execs)/time.Since(start).Seconds(), "execs/sec")
		})
	}
}

// BenchmarkCampaign measures the Monte-Carlo campaign engine's trial
// throughput at 1 vs N worker shards: one op is a full campaign of
// byte-by-byte replications against P-SSP-compiled nginx victims (one
// derived machine per replication). The trials/sec metric is the headline:
// on multi-core hosts it scales with the worker count, and a fixed seed
// keeps the aggregates bit-identical across all sub-benchmarks.
func BenchmarkCampaign(b *testing.B) {
	ctx := context.Background()
	img, err := pssp.NewMachine(pssp.WithScheme(pssp.SchemePSSP)).CompileApp("nginx-vuln")
	if err != nil {
		b.Fatal(err)
	}
	// Both run the default engine.
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"workers4", 4},
	} {
		workers := cfg.workers
		b.Run(cfg.name, func(b *testing.B) {
			m := pssp.NewMachine(pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemePSSP))
			b.ReportAllocs()
			b.ResetTimer()
			var trials int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
					Replications: 8,
					Workers:      workers,
					Attack:       pssp.AttackConfig{MaxTrials: 64},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != 8 {
					b.Fatalf("completed %d/8", res.Completed)
				}
				trials += res.Trials
			}
			b.ReportMetric(float64(trials)/time.Since(start).Seconds(), "trials/sec")
		})
	}
}
