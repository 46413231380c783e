package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/pssp"
)

// Fabric jobs are the daemon's run functions (daemon.RunAttack, RunLoad,
// RunFuzz) on the lease executor: the coordinator resolves each point's or
// round's plan on its own planning machine, leases shard ranges of it to
// the workers as the daemon wire params, and folds the returned partials
// with the engines' own merge code — so the reports here are
// byte-identical to psspattack/psspload/psspfuzz at the same seed.
//
// Jobs require an explicit non-zero Seed: a lease must be re-executable
// bit-identically on any worker, which a derived per-job seed is not.

var errSeed = errors.New("fabric: jobs require an explicit non-zero seed")

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

// leased is the fabric executor: a planning machine for the job's
// (app, scheme, seed) — an in-process daemon.Local that resolves plans but
// runs no shards — whose Campaign, LoadPoint and Fuzz lease every shard to
// the workers and merge the partials here.
type leased struct {
	*daemon.Local
	c *Coordinator
}

// Campaign implements daemon.Executor: the replications as campaignshard
// leases.
func (l *leased) Campaign(ctx context.Context, p daemon.AttackParams) (*pssp.CampaignResult, error) {
	plan, err := l.M.CampaignPlan(daemon.CampaignConfig(p, p.Seed))
	if err != nil {
		return nil, err
	}
	parts, err := collect(ctx, l.c, "campaign", "campaignshard", plan, plan.Replications,
		func(lo, hi int) any { return daemon.CampaignShardParams{AttackParams: p, Lo: lo, Hi: hi} },
		func(r *daemon.CampaignShardResult) []*pssp.CampaignPartial { return []*pssp.CampaignPartial{r.Partial} })
	if err != nil {
		return nil, err
	}
	agg := pssp.MergeCampaignPartials(plan, parts)
	return agg, agg.Failed()
}

// LoadPoint implements daemon.Executor: the workload's shards as loadshard
// leases of sp, which the workers resolve back into plan.
func (l *leased) LoadPoint(ctx context.Context, sp daemon.LoadShardParams, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
	norm, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	parts, err := collect(ctx, l.c, "loadtest", "loadshard", norm, norm.Shards,
		func(lo, hi int) any { lp := sp; lp.Lo, lp.Hi = lo, hi; return lp },
		func(r *daemon.LoadShardResult) []*pssp.LoadPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	return pssp.MergeLoadPartials(plan, parts)
}

// Fuzz implements daemon.Executor: the round's shards as fuzzshard leases.
func (l *leased) Fuzz(ctx context.Context, sp daemon.FuzzShardParams) (*pssp.FuzzReport, error) {
	plan, err := l.M.FuzzPlan(l.Img, daemon.FuzzConfig(sp.FuzzParams, sp.Seed, sp.BaseVirgin))
	if err != nil {
		return nil, err
	}
	// Ship the resolved label and seed corpus, not the raw ones: workers
	// must mutate from exactly the seeds the plan resolved (built-in
	// request default, corpus-loaded extras), or the scenario would drift.
	sp.Label, sp.Seeds = plan.Label, plan.Seeds
	parts, err := collect(ctx, l.c, "fuzz", "fuzzshard", plan, plan.Shards,
		func(lo, hi int) any { fp := sp; fp.Lo, fp.Hi = lo, hi; return fp },
		func(r *daemon.FuzzShardResult) []*pssp.FuzzPartial { return r.Partials })
	if err != nil {
		return nil, err
	}
	rep, err := pssp.MergeFuzzPartials(plan, parts)
	if err != nil {
		return nil, err
	}
	l.c.noteFrontier(rep.Edges)
	return rep, nil
}
