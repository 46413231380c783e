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
)

func main() {
	build := cliutil.FuzzFlags(flag.CommandLine)
	var (
		storeDir = flag.String("store", "", "content-addressed artifact store directory (empty = compile in-process)")
		duration = flag.Duration("duration", 0, "wall-clock time box (0 = exec-bounded only; a timed run's report is partial, not worker-invariant)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspfuzz", err) }

	job, err := build()
	if err != nil {
		fail(err)
	}
	if *remote != "" && (job.CorpusDir != "" || *storeDir != "") {
		fail(errors.New("-corpus and -store apply to local runs; a psspd daemon manages its own store (psspd -store)"))
	}
	if job.UntilStall > 0 && *remote != "" {
		fail(errors.New("-until-stall is a local loop; for distributed continuous fuzzing use psspctl fuzz -until-stall"))
	}
	if job.UntilStall > 0 && *duration > 0 {
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
	params := daemon.NormalizeFuzzParams(*job.Fuzz)
	var res daemon.FuzzResult
	if *remote != "" {
		if err := client.Run(ctx, *remote, "fuzz", params, &res, client.WithTenant(*tenant), client.WithEvents(events)); err != nil {
			fail(err)
		}
	} else {
		x, err := daemon.NewLocal(params.App, params.Scheme, params.Seed, *storeDir)
		if err != nil {
			fail(err)
		}
		x.Progress = events
		res, err = daemon.RunFuzz(ctx, params, job.CorpusDir, job.UntilStall, x,
			func(format string, args ...any) { fmt.Fprintf(os.Stderr, "psspfuzz: "+format+"\n", args...) })
		if st := x.M.Store(); st != nil {
			ss := st.Stats()
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
	// One output path for every mode, so local, remote, single-run, and
	// continuous runs stay byte-comparable. A completed run keeps the bare
	// FuzzReport shape; a time-boxed partial adds "timed_out": true, and a
	// continuous run adds its "until_stall" convergence summary.
	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, res); err != nil {
			fail(err)
		}
		return
	}
	cliutil.PrintFuzz(res, params.Scheme, *duration)
}
