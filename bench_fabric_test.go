package repro

// Benchmarks of the distributed fabric's dispatch overhead: the same
// fixed-seed attack campaign run three ways — directly on the engine, via
// a coordinator leasing to two in-process psspd workers over unix sockets,
// and via two real psspd subprocesses. The aggregates are bit-identical
// across all three by the fabric's merge contract, so the trials/sec gap
// is pure orchestration cost (JSON-RPC hops, lease scheduling, partial
// merging) and the subprocess variant adds real process isolation.

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/fabric"
	"repro/pssp"
)

// benchAttack is the per-op campaign: explicit seed (leases require one),
// byte-by-byte against P-SSP, small enough for a 400x benchtime.
var benchAttack = daemon.AttackParams{
	Target: "nginx-vuln", Scheme: "p-ssp", Strategy: "byte-by-byte",
	Budget: 64, Repeats: 8, Seed: 2018,
}

// benchWorker starts one in-process psspd on a unix socket.
func benchWorker(b *testing.B, dir string, i int) string {
	b.Helper()
	sock := filepath.Join(dir, "w"+string(rune('0'+i))+".sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	d := daemon.New(daemon.Config{Seed: 99, MaxJobs: 4, MaxQueue: 16, PoolSize: 8})
	go d.Serve(lis)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return "unix:" + sock
}

// runFabricCampaigns drives b.N campaigns through coord and reports
// trials/sec.
func runFabricCampaigns(b *testing.B, coord *fabric.Coordinator) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var trials int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run, err := coord.Job(fabric.SubmitParams{Kind: "campaign", Attack: &benchAttack})
		if err != nil {
			b.Fatal(err)
		}
		res, err := run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		rep := res.(daemon.AttackReport)
		if rep.Completed != benchAttack.Repeats {
			b.Fatalf("completed %d/%d", rep.Completed, benchAttack.Repeats)
		}
		trials += rep.Trials
	}
	b.ReportMetric(float64(trials)/time.Since(start).Seconds(), "trials/sec")
}

// BenchmarkFabricCampaign measures the fabric against the bare engine.
func BenchmarkFabricCampaign(b *testing.B) {
	b.Run("local1", func(b *testing.B) {
		ctx := context.Background()
		s, err := pssp.ParseScheme(benchAttack.Scheme)
		if err != nil {
			b.Fatal(err)
		}
		m := pssp.NewMachine(pssp.WithSeed(benchAttack.Seed), pssp.WithScheme(s))
		img, err := m.CompileApp(benchAttack.Target)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var trials int
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, err := m.Campaign(ctx, img, pssp.CampaignConfig{
				Strategy:     benchAttack.Strategy,
				Replications: benchAttack.Repeats,
				Seed:         benchAttack.Seed,
				Attack:       pssp.AttackConfig{MaxTrials: benchAttack.Budget},
			})
			if err != nil {
				b.Fatal(err)
			}
			trials += res.Trials
		}
		b.ReportMetric(float64(trials)/time.Since(start).Seconds(), "trials/sec")
	})

	b.Run("inproc2", func(b *testing.B) {
		coord := fabric.New(fabric.Config{})
		defer coord.Close()
		dir := b.TempDir()
		for i := 0; i < 2; i++ {
			if err := coord.Connect(benchWorker(b, dir, i)); err != nil {
				b.Fatal(err)
			}
		}
		runFabricCampaigns(b, coord)
	})

	b.Run("subproc2", func(b *testing.B) {
		dir := b.TempDir()
		bin := filepath.Join(dir, "psspd")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/psspd").CombinedOutput(); err != nil {
			b.Fatalf("build psspd: %v\n%s", err, out)
		}
		coord := fabric.New(fabric.Config{})
		defer coord.Close()
		for i := 0; i < 2; i++ {
			sock := filepath.Join(dir, "s"+string(rune('0'+i))+".sock")
			cmd := exec.Command(bin, "-listen", "unix:"+sock, "-seed", "99")
			if err := cmd.Start(); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				cmd.Process.Signal(os.Interrupt)
				cmd.Wait()
			})
			// Connect's dial retry absorbs the subprocess's startup.
			if err := coord.Connect("unix:" + sock); err != nil {
				b.Fatal(err)
			}
		}
		runFabricCampaigns(b, coord)
	})
}
