package harness

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/workpool"
)

// probeProgram builds a minimal program whose main calls one protected
// function once; criticals controls how many critical locals the callee
// declares (for the P-SSP-LV columns).
func probeProgram(criticals int) *cc.Program {
	locals := []cc.Local{{Name: "buf", Size: 16, IsBuffer: true}}
	for i := 0; i < criticals; i++ {
		locals = append(locals, cc.Local{Name: fmt.Sprintf("v%d", i), Size: 8, Critical: true})
	}
	return &cc.Program{
		Name: "probe",
		Funcs: []*cc.Func{
			{Name: "main", Body: []cc.Stmt{cc.Call{Callee: "probe"}}},
			{Name: "probe", Locals: locals, Body: []cc.Stmt{cc.Compute{Ops: 1}}},
		},
	}
}

// prologueEpilogueDelta measures the cycles one protected call adds over the
// unprotected build of the same program.
func prologueEpilogueDelta(cfg Config, scheme core.Scheme, criticals int) (uint64, error) {
	prog := probeProgram(criticals)
	ctx := context.Background()
	unprot, err := cfg.compileStatic(prog, core.SchemeNone)
	if err != nil {
		return 0, err
	}
	base, err := runToExit(ctx, cfg, unprot)
	if err != nil {
		return 0, err
	}
	prot, err := cfg.compileStatic(prog, scheme)
	if err != nil {
		return 0, err
	}
	got, err := runToExit(ctx, cfg, prot)
	if err != nil {
		return 0, err
	}
	if got < base {
		return 0, fmt.Errorf("harness: protected run cheaper than unprotected (%d < %d)", got, base)
	}
	return got - base, nil
}

// Table5 reproduces the paper's Table V: average CPU cycles spent by the
// function prologue and epilogue for P-SSP and its three extensions. The
// paper's columns "2 variables" and "4 variables" for P-SSP-LV correspond to
// 2 and 4 total canary words, i.e. 1 and 3 critical locals plus the frame
// canary (the paper notes LV generates |canaries|-1 random numbers: one for
// "2 variables", three for "4 variables").
//
// Sweep=true additionally sweeps P-SSP-LV over 1..8 critical variables —
// the ablation DESIGN.md calls out for the rdrand-per-canary design choice.
func Table5(cfg Config, sweep bool) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table V: CPU cycles spent by prologue+epilogue, per scheme",
		Header: []string{"scheme", "cycles"},
		Notes: []string{
			"paper: P-SSP 6, P-SSP-NT 343, P-SSP-LV(2 vars) 343, P-SSP-LV(4 vars) 986, P-SSP-OWF 278",
			"deltas vs the unprotected build of the same single-call program",
		},
	}
	type probe struct {
		label     string
		scheme    core.Scheme
		criticals int
	}
	probes := []probe{
		{"p-ssp", core.SchemePSSP, 0},
		{"p-ssp-nt", core.SchemePSSPNT, 0},
		{"p-ssp-lv (2 vars)", core.SchemePSSPLV, 1},
		{"p-ssp-lv (4 vars)", core.SchemePSSPLV, 3},
		{"p-ssp-owf", core.SchemePSSPOWF, 0},
		// Context rows: the baselines' per-call cost under the same probe.
		{"ssp (context)", core.SchemeSSP, 0},
		{"dynaguard (context)", core.SchemeDynaGuard, 0},
		{"dcr (context)", core.SchemeDCR, 0},
	}
	if sweep {
		for v := 1; v <= 8; v++ {
			probes = append(probes, probe{fmt.Sprintf("p-ssp-lv sweep %d criticals", v), core.SchemePSSPLV, v})
		}
	}

	// The probes are independent measurements on private machines, so they
	// run concurrently, each into its own slot, and the rows come out in
	// probe order at any worker count.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cycles := make([]uint64, len(probes))
	err := workpool.Run(context.Background(), len(probes), min(workers, len(probes)), func(ctx context.Context, i int) error {
		d, err := prologueEpilogueDelta(cfg, probes[i].scheme, probes[i].criticals)
		cycles[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range probes {
		t.Rows = append(t.Rows, []string{p.label, fmt.Sprintf("%d", cycles[i])})
		t.set(p.label, float64(cycles[i]))
	}
	return t, nil
}
