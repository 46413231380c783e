// Command psspfuzz drives the coverage-guided fuzzing subsystem: it boots
// replica fork-servers for a built-in app with the VM's edge-coverage map
// enabled, mutates a seed corpus over sharded deterministic streams, and
// reports the coverage frontier, the admitted corpus, and the deduplicated,
// minimized crash findings — including the buffer length each overflow
// finding hands to the attack layer (psspattack/Machine.Campaign).
//
// Usage:
//
//	psspfuzz -app nginx-vuln -scheme ssp -execs 4096
//	psspfuzz -app ali-vuln -scheme ssp -seed 7 -workers 8 -json
//	psspfuzz -app nginx-vuln -seeds 'GET /:2,PING' -dict 'Host:,HTTP/1.1'
//	psspfuzz -app nginx-vuln -duration 10s
//	psspfuzz -app nginx-vuln -store /var/cache/pssp -corpus ./corpus
//	psspfuzz -remote unix:/tmp/psspd.sock -tenant ci -execs 4096 -json
//
// -seeds and -dict use the shared weighted-spec grammar of psspload's -mix
// ("item" or "item:weight" entries, comma-separated); a seeds/dict weight
// replicates the entry, biasing uniform draws toward it. For a fixed -seed
// an exec-bounded run's report is bit-identical at any -workers count;
// -duration time-boxes the run in wall-clock time instead, trading that
// determinism for a budget in seconds.
//
// -store names a content-addressed artifact store: the victim image is
// compiled at most once per (app, scheme, toolchain) across every run and
// process sharing the directory, served from mmap'd blobs afterwards.
// -corpus names a persistent corpus directory, deduplicated by input
// content hash and carrying the merged coverage frontier: a rerun loads the
// saved inputs as extra seeds and resumes from the recorded frontier
// instead of rediscovering it, then folds its own discoveries back in.
// Store and corpus status go to stderr; the -json report shape never
// changes, so fixed-seed runs stay byte-comparable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

func main() {
	var (
		app      = flag.String("app", "nginx-vuln", "built-in server app to fuzz (see pssp.Apps)")
		scheme   = flag.String("scheme", "ssp", "protection scheme of the victim servers")
		seedSpec = flag.String("seeds", "", "seed corpus spec, e.g. 'GET /:2,PING' (empty = the app's built-in request)")
		corpus   = flag.String("corpus", "", "persistent corpus directory: saved inputs seed the run, discoveries and the coverage frontier are folded back (local runs only)")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (empty = compile in-process)")
		dict     = flag.String("dict", "", "mutation dictionary spec, e.g. 'Host:,HTTP/1.1:2'")
		execs    = flag.Int("execs", 4096, "total mutation budget across shards")
		duration = flag.Duration("duration", 0, "wall-clock time box (0 = exec-bounded only; a timed run's report is partial, not worker-invariant)")
		shards   = flag.Int("shards", 4, "self-contained fuzzing shards, one replica victim each (part of the scenario)")
		workers  = flag.Int("workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
		maxIn    = flag.Int("max-input", 1024, "generated input length cap in bytes")
		stall    = flag.Int("until-stall", 0, "continuous mode: rerun exec-bounded rounds, reseeded from the growing corpus, until the coverage frontier is unchanged for this many consecutive rounds (0 = single run)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspfuzz", err) }

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	seeds, err := cliutil.ParseByteItems(*seedSpec)
	if err != nil {
		fail(fmt.Errorf("seeds %w", err))
	}
	tokens, err := cliutil.ParseByteItems(*dict)
	if err != nil {
		fail(fmt.Errorf("dict %w", err))
	}
	if *remote != "" && (*corpus != "" || *storeDir != "") {
		fail(errors.New("-corpus and -store apply to local runs; a psspd daemon manages its own store (psspd -store)"))
	}
	if *stall > 0 && *remote != "" {
		fail(errors.New("-until-stall is a local loop; for distributed continuous fuzzing use psspctl -job fuzz -until-stall"))
	}
	if *stall > 0 && *duration > 0 {
		fail(errors.New("-until-stall rounds are exec-bounded; combine with -execs, not -duration"))
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	// A time-boxed run prints a live ticker on stderr: the run's progress
	// stream, local or remote, throttled to ~1 Hz here (callbacks are
	// serialized, so the plain `last` is race-free). Exec-bounded runs stay
	// silent — their report is the whole story.
	var events func(daemon.ProgressEvent)
	if *duration > 0 {
		var last time.Time
		events = func(ev daemon.ProgressEvent) {
			p, now := ev.Fuzz, time.Now()
			if p == nil || now.Sub(last) < time.Second {
				return
			}
			last = now
			fmt.Fprintf(os.Stderr, "psspfuzz: shard %d/%d, %d execs, %d crashes, %d finding(s), corpus %d\n",
				p.ShardsDone, p.Shards, p.Execs, p.Crashes, p.Findings, p.CorpusSize)
		}
	}

	// One scenario for every route: a remote run ships these params to a
	// daemon job, a local run hands them to the same run function on an
	// in-process executor built like the daemon's pooled machine.
	params := daemon.NormalizeFuzzParams(daemon.FuzzParams{
		App: *app, Scheme: s.String(), Seeds: seeds, Dict: tokens,
		Execs: *execs, Shards: *shards, Workers: *workers,
		MaxInput: *maxIn, Seed: *seed,
	})
	var res daemon.FuzzResult
	if *remote != "" {
		if err := client.Run(ctx, *remote, "fuzz", params, &res, client.WithTenant(*tenant), client.WithEvents(events)); err != nil {
			fail(err)
		}
	} else {
		x, err := daemon.NewLocal(params.App, s, params.Seed, *storeDir)
		if err != nil {
			fail(err)
		}
		x.Progress = events
		res, err = daemon.RunFuzz(ctx, params, *corpus, *stall, x,
			func(format string, args ...any) { fmt.Fprintf(os.Stderr, "psspfuzz: "+format+"\n", args...) })
		if x.Store != nil {
			ss := x.Store.Stats()
			fmt.Fprintf(os.Stderr, "psspfuzz: store: hits=%d misses=%d\n", ss.Hits, ss.Misses)
		}
		if err != nil {
			fail(err)
		}
	}
	// A canceled partial under -duration is the requested time box, not a
	// failure: report it like a stopped fuzzing session, flagged so scripts
	// cannot mistake a truncated frontier for a full one.
	if *duration > 0 && res.Canceled {
		res.TimedOut, res.Canceled = true, false
	}
	emit(*jsonOut, res, s, *duration)
}

// emit renders the report — the one output path of every psspfuzz mode, so
// local, remote, single-run, and continuous runs stay byte-comparable.
func emit(jsonOut bool, res daemon.FuzzResult, s pssp.Scheme, duration time.Duration) {
	if jsonOut {
		// A completed run keeps the bare FuzzReport shape; a time-boxed
		// partial adds "timed_out": true, and a continuous run adds its
		// "until_stall" convergence summary.
		if err := cliutil.EmitJSON(os.Stdout, res); err != nil {
			cliutil.Fail("psspfuzz", err)
		}
		return
	}
	rep, stallSum := res.FuzzReport, res.UntilStall
	fmt.Printf("%s (scheme %s): %d execs over %d shard(s)", rep.Label, s, rep.Execs, rep.Shards)
	if res.TimedOut {
		fmt.Printf(" [time box %v hit]", duration)
	}
	fmt.Println()
	if stallSum != nil {
		fmt.Printf("  continuous: frontier stalled after %d round(s), %d total execs\n",
			stallSum.Rounds, stallSum.TotalExecs)
	}
	fmt.Printf("  coverage: %d edges (frontier %016x), corpus %d entries\n",
		rep.Edges, rep.CoverageHash, rep.CorpusSize)
	fmt.Printf("  crashes: %d executions, %d unique site(s)", rep.Crashes, len(rep.Findings))
	if rep.ExecsToFirstCrash > 0 {
		fmt.Printf(", first at exec %d", rep.ExecsToFirstCrash)
	}
	fmt.Println()
	for i, f := range rep.Findings {
		kind := f.Kind
		if f.Detected {
			kind = "canary-detected: " + kind
		}
		fmt.Printf("  finding %d: rip=0x%x %s\n", i, f.CrashPC, kind)
		fmt.Printf("    shard %d exec %d, input %d bytes, minimized %d bytes -> overflow after %d bytes\n",
			f.Shard, f.Exec, len(f.Input), len(f.Minimized), f.OverflowLen())
	}
}
