package daemon

import (
	"context"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/pssp"
)

// Executor runs one point's or round's shards and returns the merged
// result. It is all that differs between the routes a workload runs on:
// RunAttack, RunLoad and RunFuzz hold the rest of a run — the report, the
// sweep loop, the corpus and until-stall loop, the cancellation rule — and
//
//   - Local runs the shards in-process on one machine: psspattack,
//     psspload and psspfuzz without -remote, and psspd's whole
//     attack/loadtest/fuzz jobs on a pooled machine;
//   - the fabric coordinator leases them to psspd workers (their
//     campaignshard/loadshard/fuzzshard jobs) and merges the partials.
//
// So a CLI run, a psspd job and a fabric job of the same normalized params
// produce the same report by construction.
type Executor interface {
	// Campaign runs the whole campaign p describes under p.Seed. On
	// cancellation it may return the partial aggregate alongside the error.
	Campaign(ctx context.Context, p AttackParams) (*pssp.CampaignResult, error)
	// LoadPlan resolves a workload's plan.
	LoadPlan(cfg pssp.WorkloadConfig) (pssp.LoadPlan, error)
	// LoadPoint runs every shard of plan, the workload sp describes, and
	// merges them; partial alongside the error on cancellation.
	LoadPoint(ctx context.Context, sp LoadShardParams, plan pssp.LoadPlan) (*pssp.LoadReport, error)
	// Fuzz runs every shard of the fuzzing round sp describes and merges
	// them; partial alongside the error on cancellation.
	Fuzz(ctx context.Context, sp FuzzShardParams) (*pssp.FuzzReport, error)
}

// RunAttack runs the campaign of normalized params p on x and renders
// psspattack's report.
func RunAttack(ctx context.Context, p AttackParams, x Executor) (AttackReport, error) {
	s, err := pssp.ParseScheme(p.Scheme)
	if err != nil {
		return AttackReport{}, err
	}
	res, err := x.Campaign(ctx, p)
	if err != nil && !canceledPartial(err, res != nil && res.Completed > 0) {
		return AttackReport{}, err
	}
	rep := BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, res)
	rep.Canceled = err != nil
	return rep, nil
}

// RunLoad runs the load test of normalized params p on x: one workload
// point, or with p.Sweep the offered-load sweep through loadgen.Sweep,
// whose every point is itself a whole run on x.
func RunLoad(ctx context.Context, p LoadParams, x Executor) (LoadResult, error) {
	cfg, err := LoadWorkload(p, "", p.Seed)
	if err != nil {
		return LoadResult{}, err
	}
	base, err := x.LoadPlan(cfg)
	if err != nil {
		return LoadResult{}, err
	}
	point := func(ctx context.Context, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
		// The point's params: p with the point's label and arrival knobs,
		// which LoadWorkload resolves back into exactly plan.
		sp := LoadShardParams{LoadParams: p, Label: plan.Label}
		sp.Sweep, sp.Rate, sp.Clients = nil, plan.Arrivals.RatePerMcycle, plan.Arrivals.Clients
		return x.LoadPoint(ctx, sp, plan)
	}
	var (
		res        LoadResult
		progressed bool
	)
	if len(p.Sweep) > 0 {
		res.Sweep, err = loadgen.Sweep(ctx, base, p.Sweep, point)
		progressed = res.Sweep != nil && len(res.Sweep.Points) > 0
	} else {
		res.Report, err = point(ctx, base)
		progressed = res.Report != nil && res.Report.Requests > 0
	}
	if err != nil {
		if !canceledPartial(err, progressed) {
			return LoadResult{}, err
		}
		res.Canceled = true
	}
	return res, nil
}

// RunFuzz runs the fuzzing campaign of normalized params p on x: one
// round, or with stall > 0 rounds until the frontier hash is unchanged for
// stall consecutive rounds. Round r>0 re-derives its mutation seed as
// rng.Mix(p.Seed, r) and seeds itself with p.Seeds plus every input
// discovered so far, from the accumulated frontier; the frontier is
// monotone and bounded, so the loop terminates, and the final round's
// report is cumulative by construction. With corpusDir set, the discoveries
// live in the persistent corpus there: it is re-read before every round
// (so concurrent runs sharing it contribute too) and every round's merged
// report is folded back into it here — where the round's partials have
// merged, so a corpus receives the same inputs and frontier on every
// route, and a worker never writes one. logf (nil: discard) receives the
// corpus and round status lines.
func RunFuzz(ctx context.Context, p FuzzParams, corpusDir string, stall int, x Executor, logf func(format string, args ...any)) (FuzzResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var corp *store.Corpus
	if corpusDir != "" {
		var err error
		if corp, err = store.OpenCorpus(corpusDir); err != nil {
			return FuzzResult{}, err
		}
	}
	// saved and frontier are the discoveries so far: the inputs ride along
	// as extra seeds, and the frontier marks their coverage as charted.
	var (
		saved    [][]byte
		frontier []byte
		last     *pssp.FuzzReport
	)
	sp := FuzzShardParams{FuzzParams: p}
	sum := &FuzzStallSummary{StallRounds: stall}
	for same := 0; ; {
		if sum.Rounds > 0 {
			sp.Seed = rng.Mix(p.Seed, uint64(sum.Rounds))
		}
		if corp != nil {
			// Saved inputs come sorted by content hash, so the scenario is
			// a function of the corpus set alone.
			var err error
			if saved, frontier, err = corp.Load(); err != nil {
				return FuzzResult{}, err
			}
			resumed := "fresh"
			if frontier != nil {
				resumed = "resumed"
			}
			logf("corpus %s: %d saved input(s), frontier %s", corpusDir, len(saved), resumed)
		}
		sp.Seeds, sp.BaseVirgin = append(append([][]byte{}, p.Seeds...), saved...), frontier
		rep, err := x.Fuzz(ctx, sp)
		if rep != nil && corp != nil {
			// Fold even a partial round's discoveries: content-hash dedup
			// makes re-adding idempotent and the frontier only accumulates.
			added, ferr := corp.Add(rep.CorpusInputs())
			if ferr == nil {
				ferr = corp.SaveFrontier(rep.Frontier())
			}
			if ferr != nil {
				return FuzzResult{}, ferr
			}
			logf("corpus %s: +%d new input(s), frontier merged", corpusDir, added)
		}
		if stall <= 0 {
			if err != nil && !canceledPartial(err, rep != nil && rep.Execs > 0) {
				return FuzzResult{}, err
			}
			return FuzzResult{FuzzReport: rep, Canceled: err != nil}, nil
		}
		if err != nil {
			return FuzzResult{}, err
		}
		if last != nil && rep.CoverageHash == last.CoverageHash {
			same++
		} else {
			same = 0
		}
		last = rep
		sum.Rounds++
		sum.TotalExecs += rep.Execs
		if corp == nil {
			saved, frontier = rep.CorpusInputs(), rep.Frontier()
		}
		logf("round %d: %d edges, frontier %016x (%d/%d stalled)", sum.Rounds, rep.Edges, rep.CoverageHash, same, stall)
		if same >= stall {
			return FuzzResult{FuzzReport: rep, UntilStall: sum}, nil
		}
	}
}

// Local is the in-process executor: every shard runs on machine M serving
// Img. The fabric coordinator also plans on one (see Executor.LoadPlan).
type Local struct {
	M   *pssp.Machine
	Img *pssp.Image
	// Store is the artifact store M compiles through (nil: none).
	Store *pssp.Store
	// Progress, when non-nil, receives the runs' progress tallies.
	Progress func(ProgressEvent)
	// Cycles accumulates the victim cycles of every shard run — a psspd
	// job's tenant charge.
	Cycles uint64
}

// NewLocal builds the in-process executor for app under (scheme, seed),
// compiling through the artifact store at storeDir when set — on a machine
// built like the psspd pool's, so a local run and a daemon job agree.
func NewLocal(app string, s pssp.Scheme, seed uint64, storeDir string) (*Local, error) {
	x := &Local{}
	if storeDir != "" {
		st, err := pssp.OpenStore(storeDir)
		if err != nil {
			return nil, err
		}
		x.Store = st
	}
	x.M = newMachine(s, seed, x.Store)
	img, err := x.M.Pipeline().CompileApp(app).Image()
	if err != nil {
		return nil, err
	}
	x.Img = img
	return x, nil
}

// Campaign implements Executor: Machine.Campaign, the in-process whole
// campaign.
func (x *Local) Campaign(ctx context.Context, p AttackParams) (*pssp.CampaignResult, error) {
	res, err := x.M.Campaign(ctx, x.Img, x.campaignConfig(p))
	if res != nil {
		x.Cycles += res.Cycles
	}
	return res, err
}

// LoadPlan implements Executor.
func (x *Local) LoadPlan(cfg pssp.WorkloadConfig) (pssp.LoadPlan, error) {
	return x.M.LoadPlan(x.Img, cfg)
}

// LoadPoint implements Executor: shards [0,n) of plan, then the merge. It
// keeps the partials, not just the report, because a workload's cost is
// the sum of its shards' makespans.
func (x *Local) LoadPoint(ctx context.Context, _ LoadShardParams, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
	plan.Progress = x.loadProgress()
	norm, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	parts, err := x.M.LoadPlanShards(ctx, x.Img, norm, 0, norm.Shards)
	for _, part := range parts {
		x.Cycles += part.Makespan
	}
	rep, merr := pssp.MergeLoadPartials(plan, parts)
	if merr != nil {
		return nil, merr
	}
	return rep, err
}

// Fuzz implements Executor: Machine.Fuzz, the in-process whole round.
func (x *Local) Fuzz(ctx context.Context, sp FuzzShardParams) (*pssp.FuzzReport, error) {
	rep, err := x.M.Fuzz(ctx, x.Img, x.fuzzConfig(sp))
	if rep != nil {
		x.Cycles += rep.Cycles
	}
	return rep, err
}

// campaignConfig maps p onto the facade campaign under p.Seed, streaming
// progress to x.Progress.
func (x *Local) campaignConfig(p AttackParams) pssp.CampaignConfig {
	cfg := CampaignConfig(p, p.Seed)
	if x.Progress != nil {
		cfg.Progress = func(cp pssp.CampaignProgress) { x.Progress(ProgressEvent{Kind: "attack", Campaign: &cp}) }
	}
	return cfg
}

// loadProgress streams a workload's progress to x.Progress.
func (x *Local) loadProgress() func(pssp.LoadProgress) {
	if x.Progress == nil {
		return nil
	}
	return func(lp pssp.LoadProgress) { x.Progress(ProgressEvent{Kind: "loadtest", Load: &lp}) }
}

// fuzzConfig maps sp onto the facade fuzzing configuration, streaming
// progress to x.Progress.
func (x *Local) fuzzConfig(sp FuzzShardParams) pssp.FuzzConfig {
	cfg := FuzzConfig(sp.FuzzParams, sp.Seed, sp.BaseVirgin)
	cfg.Label = sp.Label
	if x.Progress != nil {
		cfg.Progress = func(fp pssp.FuzzProgress) { x.Progress(ProgressEvent{Kind: "fuzz", Fuzz: &fp}) }
	}
	return cfg
}
