// Command psspvm loads and runs a binary image in the simulated machine —
// batch programs to completion, servers for a number of requests — and can
// disassemble images. Built entirely on the public pssp facade.
//
// Usage:
//
//	psspvm -bin app.bin                         # run a batch program
//	psspvm -bin srv.bin -request "GET /" -n 10  # serve 10 requests
//	psspvm -bin app.bin -libc libc.bin          # dynamically linked app
//	psspvm -bin app.bin -disas                  # disassemble .text
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/pssp"
)

func main() {
	var (
		binPath  = flag.String("bin", "", "binary image to run")
		libcPath = flag.String("libc", "", "libc image (dynamic apps)")
		request  = flag.String("request", "", "serve requests with this payload")
		n        = flag.Int("n", 1, "number of requests")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		disas    = flag.Bool("disas", false, "disassemble executable sections and exit")
		trace    = flag.Int("trace", 0, "print the first N executed instructions")
		stats    = flag.Bool("stats", false, "print per-opcode execution statistics")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "psspvm: %v\n", err)
		os.Exit(1)
	}
	if *binPath == "" {
		fail(fmt.Errorf("need -bin"))
	}

	app, err := pssp.OpenImage(*binPath)
	if err != nil {
		fail(err)
	}
	if *disas {
		fmt.Print(app.Disassembly())
		return
	}

	if *stats && *trace > 0 {
		fail(fmt.Errorf("-stats and -trace are mutually exclusive"))
	}
	opStats := pssp.NewStats()
	mOpts := []pssp.Option{pssp.WithSeed(*seed), pssp.WithMaxInstructions(1 << 30)}
	switch {
	case *stats:
		mOpts = append(mOpts, pssp.WithStats(opStats))
	case *trace > 0:
		mOpts = append(mOpts, pssp.WithTrace(os.Stdout, uint64(*trace)))
	}
	m := pssp.NewMachine(mOpts...)

	var loadOpts []pssp.LoadOption
	if *libcPath != "" {
		libc, err := pssp.OpenImage(*libcPath)
		if err != nil {
			fail(err)
		}
		loadOpts = append(loadOpts, pssp.LoadLibc(libc))
	}
	ctx := context.Background()

	if *request == "" {
		proc, err := m.Load(app, loadOpts...)
		if err != nil {
			fail(err)
		}
		res, err := proc.Run(ctx)
		var crash *pssp.CrashError
		switch {
		case err == nil:
			fmt.Printf("state=exited exit=%d cycles=%d insts=%d\n",
				res.ExitCode, res.Cycles, res.Insts)
			if len(res.Output) > 0 {
				fmt.Printf("stdout (%d bytes): %q\n", len(res.Output), res.Output)
			}
			if *stats {
				opStats.Report(os.Stdout)
			}
		case errors.As(err, &crash):
			fmt.Printf("state=crashed cycles=%d insts=%d\n", proc.Cycles(), proc.Insts())
			fmt.Printf("crash: %s\n", crash.Reason)
			os.Exit(1)
		default:
			fail(err)
		}
		return
	}

	srv, err := m.Serve(ctx, app, loadOpts...)
	if err != nil {
		fail(err)
	}
	for i := 0; i < *n; i++ {
		out, err := srv.Handle(ctx, []byte(*request))
		if err != nil {
			fail(err)
		}
		if out.Crashed() {
			var crash *pssp.CrashError
			errors.As(out.Err, &crash)
			fmt.Printf("request %d: CRASH (%s)\n", i, crash.Reason)
		} else {
			fmt.Printf("request %d: %q (%d cycles)\n", i, out.Body, out.Cycles)
		}
	}
	fmt.Printf("served %d requests, %d crashes, avg %.0f cycles/request\n",
		srv.Requests(), srv.Crashes(), srv.AvgCycles())
	if *stats {
		opStats.Report(os.Stdout)
	}
}
