// Command psspd is the multi-tenant serving daemon of the simulation stack:
// it keeps a warm pool of parked fork-server machines and executes
// compile/boot/attack/loadtest/fuzz jobs submitted over a newline-delimited
// JSON-RPC connection (see internal/daemon for the protocol), under
// per-tenant admission control and deterministic seed derivation.
//
// Jobs that name an explicit seed produce byte-identical reports to the
// equivalent CLI invocation (psspattack/psspload/psspfuzz with -remote
// re-emit them verbatim); jobs without one draw unique per-job seeds from
// their tenant's stream.
//
// Usage:
//
//	psspd -listen unix:/tmp/psspd.sock
//	psspd -listen 127.0.0.1:7077 -max-jobs 8 -pool 16
//	psspd -listen unix:/tmp/psspd.sock -quota 500000000 -tenant-jobs 2
//	psspd -listen unix:/tmp/psspd.sock -store /var/cache/pssp
//	psspd -worker -join unix:/tmp/psspctl.sock -name w0 -store /var/cache/pssp
//	psspd -listen unix:/tmp/psspd.sock -metrics 127.0.0.1:9090
//
// -metrics serves the observability surface over HTTP: Prometheus text on
// /metrics, per-job flight-recorder traces on /traces, and the standard
// pprof profiles under /debug/pprof/. Metrics are pure read-side: every
// report is byte-identical with or without them. -log-level picks the
// stderr verbosity (error, info, debug).
//
// -worker runs the daemon as a fabric worker instead of a listener: it
// dials the coordinator at -join (a psspctl -listen address), registers
// under -name, and serves shard-lease requests over that one connection,
// rejoining with capped backoff whenever it drops. Everything else —
// warm pool, store, drain — behaves identically.
//
// -store attaches a content-addressed artifact store: cold pool misses
// become store lookups (reported as store_hits/store_misses in `stats` and
// the shutdown log line), and compiled images persist across restarts.
//
// SIGINT/SIGTERM drain the daemon: listeners close, running jobs are
// canceled, the warm pool releases its machines, and psspd exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/workpool"
	"repro/pssp"
)

func main() {
	var (
		listen     = flag.String("listen", "unix:/tmp/psspd.sock", "listen address: unix:/path or host:port")
		seed       = flag.Uint64("seed", 1, "daemon master seed (tenant seed streams derive from it)")
		maxJobs    = flag.Int("max-jobs", 4, "concurrently running jobs")
		maxQueue   = flag.Int("max-queue", 16, "jobs waiting for a slot before admission fails busy")
		tenantJobs = flag.Int("tenant-jobs", 0, "per-tenant concurrent job bound (0 = max-jobs)")
		quota      = flag.Uint64("quota", 0, "per-tenant victim-cycle quota (0 = unlimited)")
		poolSize   = flag.Int("pool", 8, "warm machine pool capacity")
		storeDir   = flag.String("store", "", "content-addressed artifact store directory (empty = compile in-process only)")
		drain      = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
		workerMode = flag.Bool("worker", false, "run as a fabric worker: dial -join and serve shard leases instead of listening")
		join       = flag.String("join", "", "coordinator address to register with (-worker mode): unix:/path or host:port")
		name       = flag.String("name", "", "worker name in coordinator stats (-worker mode; default pid-based)")
		metrics    = flag.String("metrics", "", "serve /metrics, /traces and /debug/pprof over HTTP on this address (empty = off)")
		logLevel   = flag.String("log-level", "info", "stderr verbosity: error, info or debug")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspd", err) }

	level, err := cliutil.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger := cliutil.NewLogger("psspd", level)
	client.SetDebugf(logger.Logf(cliutil.LevelDebug))

	if *workerMode {
		if *join == "" {
			fail(fmt.Errorf("-worker requires -join: the coordinator address to register with"))
		}
		runWorker(*join, *name, *storeDir, *metrics, *drain, logger, daemon.Config{
			Seed:        *seed,
			MaxJobs:     *maxJobs,
			MaxQueue:    *maxQueue,
			TenantJobs:  *tenantJobs,
			QuotaCycles: *quota,
			PoolSize:    *poolSize,
		}, fail)
		return
	}
	if *join != "" {
		fail(fmt.Errorf("-join requires -worker"))
	}

	network, target := "tcp", *listen
	if strings.HasPrefix(*listen, "unix:") {
		network, target = "unix", strings.TrimPrefix(*listen, "unix:")
		// A stale socket file from a previous run would fail the bind.
		os.Remove(target)
	} else {
		target = strings.TrimPrefix(target, "tcp:")
	}
	lis, err := net.Listen(network, target)
	if err != nil {
		fail(err)
	}

	var st *pssp.Store
	if *storeDir != "" {
		if st, err = pssp.OpenStore(*storeDir); err != nil {
			fail(err)
		}
	}

	d := daemon.New(daemon.Config{
		Seed:        *seed,
		MaxJobs:     *maxJobs,
		MaxQueue:    *maxQueue,
		TenantJobs:  *tenantJobs,
		QuotaCycles: *quota,
		PoolSize:    *poolSize,
		Store:       st,
	})
	// The kernel and workpool sites are package-wide installs; psspd owns
	// the process, so they feed the daemon's registry.
	kernel.SetMetrics(d.Metrics())
	workpool.SetMetrics(d.Metrics())
	if *metrics != "" {
		addr, stop, err := obs.ListenAndServe(*metrics, d.Metrics(), d.Recorder())
		if err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		defer stop()
		logger.Infof("metrics on http://%s/metrics", addr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- d.Serve(lis) }()
	logger.Infof("serving on %s (seed %d, %d job slots, pool %d)",
		*listen, *seed, *maxJobs, *poolSize)

	select {
	case sig := <-sigs:
		logger.Infof("%s, draining...", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := d.Shutdown(ctx)
		cancel()
		if st != nil {
			ss := st.Stats()
			logger.Infof("store %s: store_hits=%d store_misses=%d (mem %d, disk %d, corrupt %d)",
				*storeDir, ss.Hits, ss.Misses, ss.MemHits, ss.DiskHits, ss.Corrupt)
			// The pool's machines are all closed once Shutdown returns, so no
			// live address space aliases the store's mappings.
			st.Close()
		}
		if network == "unix" {
			os.Remove(target)
		}
		if err != nil {
			fail(fmt.Errorf("drain: %w", err))
		}
	case err := <-errc:
		if err != nil {
			fail(err)
		}
	}
}

// runWorker is the -worker mode body: one daemon, no listener, a join loop
// against the coordinator, and the same signal-drain exit as serve mode.
func runWorker(join, name, storeDir, metrics string, drain time.Duration, logger *cliutil.Logger, cfg daemon.Config, fail func(error)) {
	var st *pssp.Store
	var err error
	if storeDir != "" {
		if st, err = pssp.OpenStore(storeDir); err != nil {
			fail(err)
		}
		cfg.Store = st
	}
	d := daemon.New(cfg)
	kernel.SetMetrics(d.Metrics())
	workpool.SetMetrics(d.Metrics())
	if metrics != "" {
		addr, stop, err := obs.ListenAndServe(metrics, d.Metrics(), d.Recorder())
		if err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		defer stop()
		logger.Infof("metrics on http://%s/metrics", addr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- d.Worker(ctx, join, name) }()
	logger.Infof("worker joining %s (seed %d, %d job slots, pool %d)",
		join, cfg.Seed, cfg.MaxJobs, cfg.PoolSize)

	select {
	case sig := <-sigs:
		logger.Infof("%s, draining...", sig)
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), drain)
		err := d.Shutdown(dctx)
		dcancel()
		if st != nil {
			ss := st.Stats()
			logger.Infof("store %s: store_hits=%d store_misses=%d (mem %d, disk %d, corrupt %d)",
				storeDir, ss.Hits, ss.Misses, ss.MemHits, ss.DiskHits, ss.Corrupt)
			st.Close()
		}
		if err != nil {
			fail(fmt.Errorf("drain: %w", err))
		}
	case err := <-errc:
		if err != nil && err != context.Canceled {
			fail(err)
		}
	}
}
