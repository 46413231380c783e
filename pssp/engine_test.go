package pssp_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/harness"
	"repro/pssp"
)

// engineArm is one column of the differential matrix: an engine plus the
// options that select how it dispatches.
type engineArm struct {
	name   string
	engine pssp.Engine
	// steps installs a statistics collector, whose per-instruction hook
	// routes compiled runs through the per-step loop instead of the block
	// dispatcher. Machine replicas drop it, so campaign and fuzz shards
	// still run blocks.
	steps bool
}

func (a engineArm) String() string { return a.name }

// opts returns the arm's machine options.
func (a engineArm) opts() []pssp.Option {
	opts := []pssp.Option{pssp.WithEngine(a.engine)}
	if a.steps {
		opts = append(opts, pssp.WithStats(pssp.NewStats()))
	}
	return opts
}

// engines is the full differential matrix. Index 0 is the reference the
// others are compared against.
var engines = []engineArm{
	{"interpreter", pssp.EngineInterpreter, false},
	{"compiled", pssp.EngineCompiled, false},
	{"compiled-per-step", pssp.EngineCompiled, true},
}

// TestEngineGoldenBatch runs the batch program under every engine for every
// scheme and asserts bit-identical results: exit code, output bytes, and the
// exact instruction and cycle counts.
func TestEngineGoldenBatch(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range pssp.Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			type outcome struct {
				exit          uint64
				cycles, insts uint64
				out           string
			}
			got := make([]outcome, len(engines))
			for i, e := range engines {
				m := pssp.NewMachine(append(e.opts(), pssp.WithSeed(7))...)
				res, err := m.Pipeline().Compile(batchProg(), pssp.CompileScheme(scheme)).Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got[i] = outcome{res.ExitCode, res.Cycles, res.Insts, string(res.Output)}
			}
			for i := 1; i < len(engines); i++ {
				if got[i] != got[0] {
					t.Fatalf("engines diverged:\n%s: %+v\n%s: %+v",
						engines[0], got[0], engines[i], got[i])
				}
			}
		})
	}
}

// TestEngineGoldenAttack runs the byte-by-byte attack against an
// SSP-compiled vulnerable server under every engine with the same seed and
// asserts identical attack outcomes: success, trial count, recovered canary,
// and the per-request crash tally.
func TestEngineGoldenAttack(t *testing.T) {
	ctx := context.Background()
	for _, scheme := range []pssp.Scheme{pssp.SchemeSSP, pssp.SchemePSSP} {
		t.Run(scheme.String(), func(t *testing.T) {
			type outcome struct {
				success   bool
				trials    int
				recovered uint64
				failedAt  int
				crashes   int
				cycles    uint64
			}
			got := make([]outcome, len(engines))
			for i, e := range engines {
				m := pssp.NewMachine(append(e.opts(),
					pssp.WithSeed(2018),
					pssp.WithScheme(scheme),
					pssp.WithAttackBudget(3000),
				)...)
				srv, err := m.Pipeline().CompileApp("nginx-vuln").Serve(ctx)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				res, err := srv.Attack(ctx, pssp.AttackConfig{})
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				got[i] = outcome{res.Success, res.Trials, res.RecoveredWord(), res.FailedAt,
					srv.Crashes(), srv.TotalCycles()}
			}
			for i := 1; i < len(engines); i++ {
				if got[i] != got[0] {
					t.Fatalf("attack outcomes diverged:\n%s: %+v\n%s: %+v",
						engines[0], got[0], engines[i], got[i])
				}
			}
		})
	}
}

// TestEngineGoldenTables regenerates every paper table under every engine
// with a scaled-down config and asserts the machine-readable values are
// identical, key for key. The drivers build their machines from
// harness.Config, which selects an engine but no dispatch loop, so the
// per-step arm is left out.
func TestEngineGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table golden comparison is not -short")
	}
	drivers := []struct {
		name string
		run  func(harness.Config) (*harness.Table, error)
	}{
		{"table1", harness.Table1},
		{"table2", harness.Table2},
		{"table3", harness.Table3},
		{"table4", harness.Table4},
		{"table5", func(c harness.Config) (*harness.Table, error) { return harness.Table5(c, false) }},
	}
	cfg := harness.Config{Seed: 2018, WebRequests: 4, DBQueries: 2, AttackBudget: 600}
	var blockArms []engineArm
	for _, e := range engines {
		if !e.steps {
			blockArms = append(blockArms, e)
		}
	}
	engines := blockArms
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			vals := make([]map[string]float64, len(engines))
			for i, e := range engines {
				c := cfg
				c.Engine = e.engine
				tab, err := d.run(c)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				vals[i] = tab.Values
			}
			for i := 1; i < len(engines); i++ {
				if len(vals[i]) != len(vals[0]) {
					t.Fatalf("value sets differ in size: %s=%d %s=%d",
						engines[0], len(vals[0]), engines[i], len(vals[i]))
				}
				for k, v := range vals[0] {
					w, ok := vals[i][k]
					if !ok {
						t.Errorf("%s run missing value %q", engines[i], k)
						continue
					}
					if v != w {
						t.Errorf("%s: %s=%v %s=%v", k, engines[0], v, engines[i], w)
					}
				}
			}
		})
	}
}

// TestEngineGoldenFuzz runs a short fixed-seed fuzzing session under every
// engine and asserts the serialized reports are byte-identical — coverage
// edges, corpus growth, crash findings and minimization included.
func TestEngineGoldenFuzz(t *testing.T) {
	ctx := context.Background()
	reports := make([][]byte, len(engines))
	for i, e := range engines {
		m := pssp.NewMachine(append(e.opts(), pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP))...)
		img, err := m.CompileApp("nginx-vuln")
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		rep, err := m.Fuzz(ctx, img, pssp.FuzzConfig{Execs: 400})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e, err)
		}
		reports[i] = b
	}
	for i := 1; i < len(engines); i++ {
		if string(reports[i]) != string(reports[0]) {
			t.Fatalf("fuzz reports diverged:\n%s: %s\n%s: %s",
				engines[0], reports[0], engines[i], reports[i])
		}
	}
}

// TestEngineBudgetClassification pins the satellite fix: a watchdog kill is
// classified as ErrBudgetExhausted by errors.Is from every engine.
func TestEngineBudgetClassification(t *testing.T) {
	ctx := context.Background()
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m := pssp.NewMachine(append(e.opts(), pssp.WithMaxInstructions(2000))...)
			_, err := m.Pipeline().Compile(spinProg()).Run(ctx)
			if !errors.Is(err, pssp.ErrCrash) || !errors.Is(err, pssp.ErrBudgetExhausted) {
				t.Fatalf("budget kill = %v, want ErrCrash and ErrBudgetExhausted", err)
			}
			if errors.Is(err, pssp.ErrCanaryDetected) {
				t.Fatal("budget kill must not match ErrCanaryDetected")
			}
		})
	}
}
