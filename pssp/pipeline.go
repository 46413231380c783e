package pssp

import (
	"context"
	"errors"

	"repro/internal/cc"
)

// Pipeline is the fluent face of the compile → load → run/serve flow. Steps
// record the first error and subsequent steps become no-ops, so a chain
// needs exactly one error check at its terminal call:
//
//	res, err := m.Pipeline().CompileApp("403.gcc").Run(ctx)
//	srv, err := m.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
//
// Rewrite slots the paper's binary-instrumentation path between compile and
// load:
//
//	res, err := m.Pipeline().Compile(prog, pssp.CompileScheme(pssp.SchemeSSP)).Rewrite().Run(ctx)
type Pipeline struct {
	m    *Machine
	img  *Image
	proc *Process
	err  error
}

// Pipeline starts an empty pipeline on the machine.
func (m *Machine) Pipeline() *Pipeline { return &Pipeline{m: m} }

// Compile compiles the program into the pipeline's image.
func (pl *Pipeline) Compile(prog *cc.Program, opts ...CompileOption) *Pipeline {
	if pl.err != nil {
		return pl
	}
	pl.img, pl.err = pl.m.Compile(prog, opts...)
	return pl
}

// CompileApp compiles a program from the built-in application suite by name.
func (pl *Pipeline) CompileApp(name string, opts ...CompileOption) *Pipeline {
	if pl.err != nil {
		return pl
	}
	pl.img, pl.err = pl.m.CompileApp(name, opts...)
	return pl
}

// Rewrite upgrades the pipeline's statically linked image with the binary
// rewriter (SSP → P-SSP in place). For dynamically linked apps use the
// package-level Rewrite, which also rewrites the libc image.
func (pl *Pipeline) Rewrite() *Pipeline {
	if pl.err != nil {
		return pl
	}
	pl.img, _, pl.err = Rewrite(pl.img, nil)
	return pl
}

// Load spawns the pipeline's image as a process.
func (pl *Pipeline) Load(opts ...LoadOption) *Pipeline {
	if pl.err != nil {
		return pl
	}
	pl.proc, pl.err = pl.m.Load(pl.img, opts...)
	return pl
}

// Image returns the pipeline's image and accumulated error.
func (pl *Pipeline) Image() (*Image, error) { return pl.img, pl.err }

// Process returns the loaded process and accumulated error.
func (pl *Pipeline) Process() (*Process, error) { return pl.proc, pl.err }

// Err returns the first error recorded by any step.
func (pl *Pipeline) Err() error { return pl.err }

// Run is the terminal batch step: loads the image if no Load step ran, then
// executes to completion under ctx. Passing LoadOptions after an explicit
// Load step is an error — they would be silently ignored otherwise.
func (pl *Pipeline) Run(ctx context.Context, opts ...LoadOption) (*Result, error) {
	if pl.err == nil && pl.proc != nil && len(opts) > 0 {
		pl.err = errLoadOptsAfterLoad
	}
	if pl.err == nil && pl.proc == nil {
		pl.Load(opts...)
	}
	if pl.err != nil {
		return nil, pl.err
	}
	return pl.proc.Run(ctx)
}

// errLoadOptsAfterLoad guards the Run/Serve terminal steps against load
// options that arrive after the process was already loaded.
var errLoadOptsAfterLoad = errors.New("pssp: pipeline already ran Load; pass LoadOptions to Load, not the terminal step")

// Serve is the terminal server step: boots the pipeline's process (loading
// the image first if no Load step ran) to its accept point and returns the
// parked fork server.
func (pl *Pipeline) Serve(ctx context.Context, opts ...LoadOption) (*Server, error) {
	if pl.err == nil && pl.proc != nil && len(opts) > 0 {
		pl.err = errLoadOptsAfterLoad
	}
	if pl.err == nil && pl.proc == nil {
		pl.Load(opts...)
	}
	if pl.err != nil {
		return nil, pl.err
	}
	return pl.m.serveLoaded(ctx, pl.proc)
}
