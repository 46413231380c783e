// Package harness drives the paper's evaluation: one driver per table and
// figure (Table I–V, Figure 5, the §VI-C effectiveness and compatibility
// experiments, and the Figure 6 global-buffer variant), each returning a
// renderable text table plus machine-readable values for assertions and
// benchmarks.
//
// Cycle counts come from the VM's calibrated cost model; where the paper
// reports wall-clock times we convert at the 3.5 GHz clock of its i7-4770K
// testbed. EXPERIMENTS.md records paper-vs-measured for every driver.
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/pssp"
)

// CyclesPerMicrosecond converts simulated cycles to microseconds at the
// paper's 3.5 GHz testbed clock (the facade's canonical constant).
const CyclesPerMicrosecond = pssp.CyclesPerMicrosecond

// Config scales the experiments. The zero value gives fast defaults suitable
// for `go test`; the psspbench CLI exposes flags to scale up.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// WebRequests per server for Table III (default 64).
	WebRequests int
	// DBQueries per database for Table IV (default 16).
	DBQueries int
	// AttackBudget bounds brute-force trials (default 4096).
	AttackBudget int
	// AttackReps is the number of independent attack-campaign replications
	// behind each security cell (default 2). Every replication attacks a
	// freshly derived victim machine; aggregates are seed-deterministic at
	// any worker count.
	AttackReps int
	// Workers bounds campaign concurrency (default: GOMAXPROCS). It scales
	// wall-clock time only, never results.
	Workers int
	// LoadRequests is the request budget of the under-load experiment
	// (default 96); LoadClients its closed-loop client population
	// (default 8). See UnderLoad.
	LoadRequests int
	LoadClients  int
	// FuzzExecs is the mutation budget of the fuzz-discovery experiment
	// (default 768). See FuzzDiscovery.
	FuzzExecs int
	// Engine selects the VM execution engine for every machine the drivers
	// build. The zero value is the block-lowered pssp.EngineCompiled;
	// pssp.EngineInterpreter is the reference the cross-engine golden tests
	// run the full drivers under to assert identical values.
	Engine pssp.Engine
	// Store, when non-nil, routes every compile the drivers perform through
	// the content-addressed artifact store. Store hits are byte-identical to
	// cold compiles, so every table and report is store-hit-invariant — the
	// store-vs-cold golden tests assert exactly that.
	Store *pssp.Store
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2018 // DSN'18
	}
	if c.WebRequests == 0 {
		c.WebRequests = 64
	}
	if c.DBQueries == 0 {
		c.DBQueries = 16
	}
	if c.AttackBudget == 0 {
		c.AttackBudget = 4096
	}
	if c.AttackReps == 0 {
		c.AttackReps = 2
	}
	if c.LoadRequests == 0 {
		c.LoadRequests = 96
	}
	if c.LoadClients == 0 {
		c.LoadClients = 8
	}
	if c.FuzzExecs == 0 {
		c.FuzzExecs = 768
	}
	return c
}

// Table is a renderable experiment result. The JSON tags are the CLIs'
// machine-readable shape (psspbench -json).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Values carries machine-readable results keyed by "row/column"-style
	// paths, for tests and benchmarks.
	Values map[string]float64 `json:"values,omitempty"`
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

func (t *Table) set(key string, v float64) {
	if t.Values == nil {
		t.Values = make(map[string]float64)
	}
	t.Values[key] = v
}

// machine builds a Machine under the config's execution engine plus the
// given options. Every driver constructs machines through it so one Config
// knob switches the whole evaluation between engines.
func (c Config) machine(opts ...pssp.Option) *pssp.Machine {
	return pssp.NewMachine(append([]pssp.Option{pssp.WithEngine(c.Engine), pssp.WithStore(c.Store)}, opts...)...)
}

// compileStatic compiles an IR program as a statically linked image.
func (c Config) compileStatic(prog *cc.Program, scheme core.Scheme) (*pssp.Image, error) {
	return pssp.NewMachine(pssp.WithScheme(scheme), pssp.WithStore(c.Store)).Compile(prog)
}

// runToExit runs the image to completion on a fresh machine, returning the
// cycle count.
func runToExit(ctx context.Context, cfg Config, img *pssp.Image) (uint64, error) {
	res, err := cfg.machine(pssp.WithSeed(cfg.Seed)).Run(ctx, img)
	if err != nil {
		return 0, fmt.Errorf("harness: %s: %w", img.Name(), err)
	}
	return res.Cycles, nil
}

// specSuiteCycles measures every SPEC analog on concurrent sessions — one
// Machine per program — with build supplying each program's image. ctx
// cancellation aborts the whole sweep.
func specSuiteCycles(ctx context.Context, cfg Config, build func(m *pssp.Machine, app apps.App) (*pssp.Image, error)) (map[string]uint64, error) {
	suite := apps.Spec()
	cycles := make([]uint64, len(suite))
	err := pssp.RunSessions(ctx, len(suite),
		func(int) []pssp.Option {
			return []pssp.Option{pssp.WithSeed(cfg.Seed), pssp.WithEngine(cfg.Engine), pssp.WithStore(cfg.Store)}
		},
		func(ctx context.Context, s *pssp.Session) error {
			app := suite[s.ID()]
			img, err := build(s.Machine(), app)
			if err != nil {
				return fmt.Errorf("harness: %s: %w", app.Name, err)
			}
			res, err := s.Machine().Run(ctx, img)
			if err != nil {
				return fmt.Errorf("harness: %s: %w", app.Name, err)
			}
			cycles[s.ID()] = res.Cycles
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(suite))
	for i, app := range suite {
		out[app.Name] = cycles[i]
	}
	return out, nil
}

// specCycles measures every SPEC analog under the scheme.
func specCycles(ctx context.Context, cfg Config, scheme core.Scheme) (map[string]uint64, error) {
	return specSuiteCycles(ctx, cfg, func(m *pssp.Machine, app apps.App) (*pssp.Image, error) {
		return m.Compile(app.Prog, pssp.CompileScheme(scheme))
	})
}

// instrumentedSpecCycles measures every SPEC analog compiled with SSP and
// upgraded by the binary rewriter.
func instrumentedSpecCycles(ctx context.Context, cfg Config) (map[string]uint64, error) {
	return specSuiteCycles(ctx, cfg, func(m *pssp.Machine, app apps.App) (*pssp.Image, error) {
		return m.Pipeline().
			Compile(app.Prog, pssp.CompileScheme(core.SchemeSSP)).
			Rewrite().
			Image()
	})
}

// pct formats a ratio as a signed percentage.
func pct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// overheadVs returns (got-base)/base.
func overheadVs(got, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(got)/float64(base) - 1
}

// serverStats measures the benign load of the paper's performance tables:
// n requests, served one after another by one fork server for the image on
// machine m, folded into the average request cycles plus the worker memory
// footprint in bytes. A non-positive n still measures one request.
func serverStats(ctx context.Context, m *pssp.Machine, img *pssp.Image, request []byte, n int) (float64, int, error) {
	srv, err := m.Serve(ctx, img)
	if err != nil {
		return 0, 0, err
	}
	footprint := srv.Footprint()
	n = max(n, 1)
	var cycles uint64
	for i := 0; i < n; i++ {
		resp, err := srv.Handle(ctx, request)
		if err != nil {
			return 0, 0, err
		}
		if resp.Crashed() {
			return 0, 0, fmt.Errorf("harness: benign request crashed: %w", resp.Err)
		}
		cycles += resp.Cycles
	}
	return float64(cycles) / float64(n), footprint, nil
}
