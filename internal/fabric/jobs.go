package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/daemon"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pssp"
)

// Fabric jobs take the daemon wire params — the exact objects leases ship —
// and require an explicit non-zero Seed: a lease must be re-executable
// bit-identically on any worker, which a derived per-job seed is not.
//
// A fabric job is the daemon's whole job with the merge moved to the
// coordinator: it resolves the engine plan itself (via the facade's plan
// methods, the same resolution path workers run), leases shard ranges of
// that plan, and folds the returned partials with the engines' own merge
// code — so the reports here are byte-identical to psspattack/psspload/
// psspfuzz at the same seed.

var errSeed = errors.New("fabric: jobs require an explicit non-zero seed")

// machineFor builds the coordinator's local planning machine for a job.
func machineFor(scheme string, dflt string, seed uint64) (*pssp.Machine, pssp.Scheme, error) {
	if scheme == "" {
		scheme = dflt
	}
	s, err := pssp.ParseScheme(scheme)
	if err != nil {
		return nil, 0, err
	}
	return pssp.NewMachine(pssp.WithSeed(seed), pssp.WithScheme(s)), s, nil
}

// partial is a worker's wire partial, checkable against the lease of plan
// it answers.
type partial[P any] interface {
	Fits(plan P, lo, hi int) bool
}

// collect is the fabric's one lease-collect loop: it runs shards [0, n) of
// plan across the workers as leases of method, with params built by lease,
// and gathers the partials each result carries for the caller's merge. A
// worker answering with a partial that does not fit its lease [lo,hi) —
// one outside the range, which would silently overwrite another lease's
// slots in the merge, or one shaped unlike the plan, which would crash it
// — fails that lease like a lost worker: it is declared dead and the lease
// re-issued.
func collect[R, P any, T partial[P]](ctx context.Context, c *Coordinator, kind, method string, plan P, n int,
	lease func(lo, hi int) any, parts func(*R) []T) ([]T, error) {
	var (
		mu  sync.Mutex
		all []T
	)
	ctx = obs.ContextWithTrace(ctx, c.beginTrace(kind))
	err := c.runLeases(ctx, n, func(ctx context.Context, w *worker, lo, hi int) error {
		var res R
		if err := c.callLease(ctx, w, method, lease(lo, hi), &res); err != nil {
			return err
		}
		got := parts(&res)
		for _, p := range got {
			if !p.Fits(plan, lo, hi) {
				return fmt.Errorf("fabric: %s answered lease [%d,%d) with a partial that does not fit it", w.name, lo, hi)
			}
		}
		mu.Lock()
		all = append(all, got...)
		mu.Unlock()
		return nil
	})
	return all, err
}

// Campaign fans an attack campaign's replications out across the workers
// and returns the merged report — the exact shape psspattack -json emits.
func (c *Coordinator) Campaign(ctx context.Context, p daemon.AttackParams) (*daemon.AttackReport, error) {
	p = daemon.NormalizeAttackParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	m, s, err := machineFor(p.Scheme, "ssp", p.Seed)
	if err != nil {
		return nil, err
	}
	plan, err := m.CampaignPlan(daemon.CampaignConfig(p, p.Seed))
	if err != nil {
		return nil, err
	}
	parts, err := collect(ctx, c, "campaign", "campaignshard", plan, plan.Replications,
		func(lo, hi int) any { return daemon.CampaignShardParams{AttackParams: p, Lo: lo, Hi: hi} },
		func(r *daemon.CampaignShardResult) []*pssp.CampaignPartial { return []*pssp.CampaignPartial{r.Partial} })
	if err != nil {
		return nil, err
	}
	agg := pssp.MergeCampaignPartials(plan, parts)
	if err := agg.Failed(); err != nil {
		return nil, err
	}
	rep := daemon.BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, agg)
	return &rep, nil
}

// loadPlan resolves the coordinator-side workload plan for p.
func loadPlan(p daemon.LoadParams) (pssp.LoadPlan, error) {
	m, _, err := machineFor(p.Scheme, "p-ssp", p.Seed)
	if err != nil {
		return pssp.LoadPlan{}, err
	}
	img, err := m.Pipeline().CompileApp(p.App).Image()
	if err != nil {
		return pssp.LoadPlan{}, err
	}
	cfg, err := daemon.LoadWorkload(p, p.App, p.Seed)
	if err != nil {
		return pssp.LoadPlan{}, err
	}
	return m.LoadPlan(img, cfg)
}

// loadPoint leases one whole workload's shards and merges them. plan is
// the resolved-unnormalized scenario of the point (the base plan, or a
// sweep point's Scale'd one).
func (c *Coordinator) loadPoint(ctx context.Context, p daemon.LoadParams, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
	norm, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	sp := daemon.PointParams(p, plan)
	parts, err := collect(ctx, c, "loadtest", "loadshard", norm, norm.Shards,
		func(lo, hi int) any { lp := sp; lp.Lo, lp.Hi = lo, hi; return lp },
		func(r *daemon.LoadShardResult) []*pssp.LoadPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	return pssp.MergeLoadPartials(plan, parts)
}

// LoadTest fans one workload's shards out across the workers and returns
// the merged report — the exact shape psspload -json emits.
func (c *Coordinator) LoadTest(ctx context.Context, p daemon.LoadParams) (*pssp.LoadReport, error) {
	p = daemon.NormalizeLoadParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	if len(p.Sweep) > 0 {
		return nil, errors.New("fabric: LoadTest takes a single workload; use LoadSweep")
	}
	plan, err := loadPlan(p)
	if err != nil {
		return nil, err
	}
	return c.loadPoint(ctx, p, plan)
}

// LoadSweep steps the scenario through p.Sweep's offered-load multipliers
// (each point leased across the workers) with loadgen's sweep loop and
// knee rule — the exact report psspload -sweep -json emits.
func (c *Coordinator) LoadSweep(ctx context.Context, p daemon.LoadParams) (*pssp.LoadSweepReport, error) {
	p = daemon.NormalizeLoadParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	base, err := loadPlan(p)
	if err != nil {
		return nil, err
	}
	return loadgen.Sweep(ctx, base, p.Sweep, func(ctx context.Context, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
		return c.loadPoint(ctx, p, plan)
	})
}

// Fuzz fans a fuzzing campaign's shards out across the workers and returns
// the merged report — the exact shape psspfuzz -json emits. corpusDir,
// when non-empty, mirrors psspfuzz -corpus: saved inputs seed the run, the
// saved frontier marks their coverage charted, and every lease folds its
// discoveries back in through the flock'd corpus.
func (c *Coordinator) Fuzz(ctx context.Context, p daemon.FuzzParams, corpusDir string) (*pssp.FuzzReport, error) {
	p = daemon.NormalizeFuzzParams(p)
	if p.Seed == 0 {
		return nil, errSeed
	}
	seeds := p.Seeds
	var baseVirgin []byte
	if corpusDir != "" {
		corp, err := store.OpenCorpus(corpusDir)
		if err != nil {
			return nil, err
		}
		saved, frontier, err := corp.Load()
		if err != nil {
			return nil, err
		}
		seeds = append(append([][]byte{}, seeds...), saved...)
		baseVirgin = frontier
	}
	return c.fuzzRound(ctx, p, seeds, baseVirgin, corpusDir)
}

// fuzzRound is one lease-and-merge pass of Fuzz/FuzzUntilStall.
func (c *Coordinator) fuzzRound(ctx context.Context, p daemon.FuzzParams, seeds [][]byte, baseVirgin []byte, corpusDir string) (*pssp.FuzzReport, error) {
	m, _, err := machineFor(p.Scheme, "ssp", p.Seed)
	if err != nil {
		return nil, err
	}
	img, err := m.Pipeline().CompileApp(p.App).Image()
	if err != nil {
		return nil, err
	}
	p.Seeds = seeds
	plan, err := m.FuzzPlan(img, daemon.FuzzConfig(p, p.Seed, baseVirgin))
	if err != nil {
		return nil, err
	}
	sp := daemon.FuzzShardParams{FuzzParams: p, BaseVirgin: baseVirgin, CorpusDir: corpusDir}
	// Ship the resolved label and seed corpus, not the raw ones: workers
	// must mutate from exactly the seeds the plan resolved (built-in
	// request default, corpus-loaded extras), or the scenario would drift.
	sp.Label, sp.Seeds = plan.Label, plan.Seeds
	parts, err := collect(ctx, c, "fuzz", "fuzzshard", plan, plan.Shards,
		func(lo, hi int) any { fp := sp; fp.Lo, fp.Hi = lo, hi; return fp },
		func(r *daemon.FuzzShardResult) []*pssp.FuzzPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	rep, err := pssp.MergeFuzzPartials(plan, parts)
	if err != nil {
		return nil, err
	}
	c.noteFrontier(rep.Edges)
	return rep, nil
}

// StallSummary reports a continuous fuzzing run's convergence; shared with
// psspfuzz -until-stall through the facade so both modes emit the same
// shape.
type StallSummary = pssp.FuzzStallSummary

// FuzzUntilStall runs pssp.FuzzUntilStall — the loop psspfuzz -until-stall
// runs locally — with each round leased across the workers: the fabric's
// continuous mode. With corpusDir set, rounds reseed from the shared
// corpus (which the leases fold their discoveries into), else in memory.
func (c *Coordinator) FuzzUntilStall(ctx context.Context, p daemon.FuzzParams, corpusDir string, stall int) (*pssp.FuzzReport, *StallSummary, error) {
	p = daemon.NormalizeFuzzParams(p)
	if p.Seed == 0 {
		return nil, nil, errSeed
	}
	var load func() ([][]byte, []byte, error)
	if corpusDir != "" {
		corp, err := store.OpenCorpus(corpusDir)
		if err != nil {
			return nil, nil, err
		}
		load = corp.Load
	}
	round := func(ctx context.Context, seed uint64, seeds [][]byte, baseVirgin []byte) (*pssp.FuzzReport, error) {
		rp := p
		rp.Seed = seed
		return c.fuzzRound(ctx, rp, seeds, baseVirgin, corpusDir)
	}
	return pssp.FuzzUntilStall(ctx, p.Seed, p.Seeds, stall, load, round, func(format string, args ...any) {
		c.logf("fabric: fuzz "+format, args...)
	})
}
