package repro

// Benchmarks of psspd's job dispatch: how fast the daemon turns a request
// into a running job against its warm machine pool, versus the cold
// compile+boot every one-shot CLI invocation pays. The warm sub-benchmarks
// go through the full stack — client, unix socket, JSON-RPC, admission,
// pool checkout — so jobs/sec is an end-to-end serving number, at 1 vs 4
// concurrent tenants.

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
)

// benchDaemon serves a daemon on a unix socket for the benchmark's
// lifetime and returns a connected client.
func benchDaemon(b *testing.B, cfg daemon.Config) *client.Client {
	b.Helper()
	sock := filepath.Join(b.TempDir(), "psspd.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	d := daemon.New(cfg)
	go d.Serve(lis)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	c, err := client.Dial("unix:" + sock)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// bootJob dispatches one boot job — pure job-start cost: admission, pool
// checkout of the parked (app, scheme, seed) machine, check-in.
func bootJob(b *testing.B, c *client.Client, tenant string, seed uint64) {
	err := c.Call(context.Background(), "boot",
		daemon.BootParams{App: "nginx-vuln", Scheme: "ssp", Seed: seed},
		nil, client.WithTenant(tenant))
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDaemonRequest measures job dispatch. warm1tenant/warm4tenants
// are end-to-end: one op is a full client→daemon boot job over a unix
// socket, served from the warm pool. dispatchwarm/dispatchcold isolate
// job-start latency at the job engine (in-process Do, no wire):
// dispatchwarm checks a parked machine out of the pool, dispatchcold pays
// the compile+boot a one-shot CLI invocation pays. The acceptance bar is
// dispatchwarm ≥10× cheaper than dispatchcold.
func BenchmarkDaemonRequest(b *testing.B) {
	b.Run("warm1tenant", func(b *testing.B) {
		c := benchDaemon(b, daemon.Config{MaxJobs: 4, PoolSize: 8})
		bootJob(b, c, "t0", 2018) // pre-warm the pool entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bootJob(b, c, "t0", 2018)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})

	b.Run("warm4tenants", func(b *testing.B) {
		const tenants = 4
		c := benchDaemon(b, daemon.Config{MaxJobs: tenants, PoolSize: 8})
		for i := 0; i < tenants; i++ {
			bootJob(b, c, tenantName(i), uint64(2018+i)) // one warm entry per tenant
		}
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := i; n < b.N; n += tenants {
					bootJob(b, c, tenantName(i), uint64(2018+i))
				}
			}(i)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})

	boot := daemon.BootParams{App: "nginx-vuln", Scheme: "ssp", Seed: 2018}

	b.Run("dispatchwarm", func(b *testing.B) {
		ctx := context.Background()
		d := daemon.New(daemon.Config{})
		b.Cleanup(func() { d.Shutdown(ctx) })
		if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})

	b.Run("dispatchcold", func(b *testing.B) {
		// A fresh daemon per op: empty image cache, empty pool — the full
		// compile+boot job-start cost of a one-shot CLI run.
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := daemon.New(daemon.Config{})
			if _, err := d.Do(ctx, "t0", "boot", boot, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			d.Shutdown(ctx)
			b.StartTimer()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})
}

func tenantName(i int) string { return string(rune('a' + i)) }
