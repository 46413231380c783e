// Command psspattack runs attack campaigns against the vulnerable server
// analogs and reports the outcome — the CLI face of the paper's §VI-C
// effectiveness experiment, built on the public pssp facade.
//
// A campaign is -repeats independent replications of the selected adversary
// strategy, each against a freshly derived victim machine, sharded over
// -workers concurrent oracles. For a fixed -seed the aggregates are
// bit-identical at any worker count.
//
// With -remote the campaign runs as a job on a psspd daemon instead of
// in-process; for a fixed explicit -seed the output (including -json) is
// byte-identical to the local run.
//
// Usage:
//
//	psspattack -target nginx-vuln -scheme ssp
//	psspattack -target ali-vuln -scheme p-ssp -budget 8192
//	psspattack -scheme ssp -strategy chunk -repeats 16 -workers 8
//	psspattack -scheme p-ssp -strategy adaptive -repeats 32 -json
//	psspattack -remote unix:/tmp/psspd.sock -tenant ci -repeats 8 -json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
)

func main() {
	build := cliutil.AttackFlags(flag.CommandLine)
	var (
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object")
		storeDir = flag.String("store", "", "content-addressed artifact store directory (local runs; empty = compile in-process)")
		remote   = flag.String("remote", "", "run on a psspd daemon at this address (unix:/path or host:port)")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default \"default\")")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspattack", err) }

	job, err := build()
	if err != nil {
		fail(err)
	}
	if *remote != "" && *storeDir != "" {
		fail(fmt.Errorf("-store applies to local runs; a psspd daemon manages its own store (psspd -store)"))
	}

	// One scenario for both routes: a remote run ships these params to a
	// daemon job, a local run hands them to the same run function on an
	// in-process executor built like the daemon's pooled machine.
	params := *job.Attack
	if !*jsonOut {
		where := ""
		if *remote != "" {
			where = " on " + *remote
		}
		fmt.Printf("attacking %s (scheme %s) with %s%s: %d replication(s), budget %d trials each...\n",
			params.Target, params.Scheme, params.Strategy, where, params.Repeats, params.Budget)
	}
	var rep daemon.AttackReport
	if *remote != "" {
		if err := client.Run(context.Background(), *remote, "attack", params, &rep, client.WithTenant(*tenant)); err != nil {
			fail(err)
		}
	} else {
		params = daemon.NormalizeAttackParams(params)
		x, err := daemon.NewLocal(params.Target, params.Scheme, params.Seed, *storeDir)
		if err != nil {
			fail(err)
		}
		if rep, err = daemon.RunAttack(context.Background(), params, x); err != nil {
			fail(err)
		}
	}

	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, rep); err != nil {
			fail(err)
		}
		return
	}
	cliutil.PrintReport(rep, job)
}
