// Package pssp is the public facade of the P-SSP reproduction: one
// composable surface over the whole simulated stack — compiler, assembler,
// binary format, kernel, VM, binary rewriter, and attack driver.
//
// The unit of work is a Machine: an isolated simulated computer (kernel +
// CPU + entropy source) constructed with functional options. A Machine runs
// the full pipeline
//
//	Compile(source) → Image → Load(Image) → Process → Run / Serve
//
// either step by step or through the fluent Pipeline type:
//
//	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP))
//	res, err := m.Pipeline().CompileApp("403.gcc").Run(ctx)
//
// Servers follow the paper's fork-per-request model:
//
//	srv, err := m.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
//	resp, err := srv.Handle(ctx, []byte("GET /"))
//
// Every run accepts a context.Context whose cancellation is checked inside
// the VM step loop, so long simulations are abortable mid-instruction-stream.
// Machines are self-contained: any number of them may run concurrently on
// separate goroutines (see Session and RunSessions), which is how the
// evaluation harness parallelizes the paper's tables.
//
// Failures carry a sentinel taxonomy compatible with errors.Is/As: ErrCrash
// for any abnormal termination, ErrCanaryDetected for crashes raised by a
// canary check, ErrBudgetExhausted for watchdog kills. See CrashError for
// the carried detail.
package pssp

import (
	"io"

	"repro/internal/kernel"
	"repro/internal/store"
	"repro/internal/vm"
)

// Engine selects the machine's execution engine; see WithEngine.
type Engine = vm.Engine

// Execution engines.
const (
	// EngineCompiled is the default: each executable segment is predecoded
	// once into a code cache that forked workers share read-only, then
	// lazily lowered into basic blocks of flat micro-ops with fused
	// canary-sequence superinstructions, cached segment-view memory access,
	// and block-level budget/coverage accounting. Traps, cold offsets,
	// self-modified code and instrumented runs fall back to a per-step path
	// over the same cache.
	EngineCompiled = vm.EngineCompiled
	// EngineInterpreter is the fetch–decode–execute interpreter, kept as
	// the reference for differential testing: both engines produce
	// bit-identical results, cycle counts, and attack outcomes.
	EngineInterpreter = vm.EngineInterpreter
)

// Stats accumulates per-opcode execution statistics across every process a
// Machine runs. Install with WithStats, render with Report.
type Stats = vm.OpStats

// NewStats returns an empty statistics collector for WithStats.
func NewStats() *Stats { return &Stats{} }

// config collects Machine options.
type config struct {
	seed         uint64
	scheme       Scheme
	engine       Engine
	maxInsts     uint64
	attackBudget int
	traceW       io.Writer
	traceLimit   uint64
	stats        *Stats
	store        *store.Store
}

func defaultConfig() config {
	return config{
		seed:         1,
		scheme:       SchemePSSP,
		maxInsts:     256 << 20,
		attackBudget: 4096,
	}
}

// Option configures a Machine.
type Option func(*config)

// WithSeed seeds the machine's entropy source. Two machines with the same
// seed and workload behave identically; the default seed is 1.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithScheme sets the default protection scheme used by Compile when no
// per-call override is given. The default is SchemePSSP.
func WithScheme(s Scheme) Option { return func(c *config) { c.scheme = s } }

// WithEngine selects the execution engine for every process the machine
// runs. The default is EngineCompiled; EngineInterpreter is the reference
// path — for a fixed seed both engines produce identical outputs,
// instruction/cycle counts, attack outcomes, and fuzz reports.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithMaxInstructions bounds a single Run/Handle call; a process exceeding
// it is crashed with ErrBudgetExhausted (the watchdog analog). The default
// is 256Mi instructions.
func WithMaxInstructions(n uint64) Option { return func(c *config) { c.maxInsts = n } }

// WithAttackBudget bounds Server.Attack trials when AttackConfig.MaxTrials
// is zero. The default is 4096.
func WithAttackBudget(n int) Option { return func(c *config) { c.attackBudget = n } }

// WithTrace prints each executed instruction to w, stopping after limit
// instructions per process (0 = unlimited). Ignored when WithStats is set.
func WithTrace(w io.Writer, limit uint64) Option {
	return func(c *config) { c.traceW, c.traceLimit = w, limit }
}

// WithStats installs a shared per-opcode statistics collector on every
// process the machine runs. Takes precedence over WithTrace.
func WithStats(s *Stats) Option { return func(c *config) { c.stats = s } }

// Machine is one isolated simulated computer: a kernel, its CPU(s), and a
// deterministic entropy source. Machines are not safe for concurrent use by
// multiple goroutines, but any number of Machines run concurrently — each
// owns all of its state.
type Machine struct {
	cfg config
	k   *kernel.Kernel
	// servers tracks every parked server booted on this machine so
	// Machine.Close can retire them all (a machine is single-goroutine by
	// design, so no lock guards the list).
	servers []*Server
}

// Close retires every server the machine has booted (see Server.Close),
// returning their parked parents' buffers to the machine's pool. The machine
// itself stays usable — Close is the between-jobs reset a long-lived machine
// needs (the daemon's warm pool closes before re-serving), not a destructor.
func (m *Machine) Close() {
	for _, s := range m.servers {
		s.Close()
	}
	m.servers = nil
}

// NewMachine builds a machine from functional options.
func NewMachine(opts ...Option) *Machine {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	k := kernel.New(cfg.seed)
	k.MaxInsts = cfg.maxInsts
	k.Engine = cfg.engine
	return &Machine{cfg: cfg, k: k}
}

// Engine returns the machine's execution engine.
func (m *Machine) Engine() Engine { return m.cfg.engine }

// Scheme returns the machine's default protection scheme.
func (m *Machine) Scheme() Scheme { return m.cfg.scheme }

// AttackBudget returns the machine's default attack-trial budget.
func (m *Machine) AttackBudget() int { return m.cfg.attackBudget }

// Now returns the machine's global cycle clock.
func (m *Machine) Now() uint64 { return m.k.Now() }

// instrument applies the machine's trace/stats options to a
// freshly spawned process. Fork clones CPU state, so instrumentation set on
// a server parent propagates to every worker.
func (m *Machine) instrument(p *kernel.Process) {
	switch {
	case m.cfg.stats != nil:
		p.CPU.SetTracer(m.cfg.stats)
	case m.cfg.traceW != nil:
		p.CPU.SetTracer(&vm.WriterTracer{W: m.cfg.traceW, Limit: m.cfg.traceLimit})
	}
}
