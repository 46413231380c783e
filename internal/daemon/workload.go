package daemon

import (
	"context"
	"encoding/json"

	"repro/internal/obs"
)

// Workload jobs: each kind (campaign, loadtest, fuzz) has one job function,
// whole or lease:
//
//   - a whole job (attack/loadtest/fuzz) is the kind's run function
//     (RunAttack/RunLoad/RunFuzz) on the pooled machine as a Local
//     executor, under its explicit or tenant-derived seed;
//   - a shard job (campaignshard/loadshard/fuzzshard) is a fabric lease —
//     the worker side of the coordinator's executor: it runs [Lo,Hi) and
//     returns the raw partials for the coordinator to merge.
//
// Both routes charge the tenant the sum of their shards' victim cycles, so
// a scenario costs the same whether it ran whole or as leases.
//
// Shard jobs require an explicit non-zero Seed: a derived seed would be
// drawn per request, so a lost lease re-issued to another worker would run
// a different scenario and the fabric's bit-identical merge would break.

// decodeWorkload decodes a workload job's params: a whole job decodes its
// kind's params only, so the lease fields of the shard params stay zero; a
// shard job decodes the whole lease.
func decodeWorkload(raw json.RawMessage, whole bool, lease, kind any) error {
	if whole {
		return unmarshalParams(raw, kind)
	}
	return unmarshalParams(raw, lease)
}

// workloadJob validates a workload job's normalized scheme and, for a
// lease, its explicit seed and half-open range (upper bounds are checked
// downstream against the resolved scenario), and wraps the kind's body
// into a jobRun: resolve the seed (0 derives from the tenant stream), check
// out the warm machine for (app, scheme, seed), and run the body on it as a
// Local executor whose progress streams to the job's events and whose
// accumulated victim cycles are the job's cost.
func (d *Daemon) workloadJob(t *tenant, whole bool, app, scheme string, explicit uint64, lo, hi int,
	body func(ctx context.Context, x *Local, seed uint64) (any, error)) (jobRun, error) {
	s, err := parseScheme(scheme, "")
	if err != nil {
		return nil, err
	}
	if !whole && explicit == 0 {
		return nil, badRequest("shard jobs require an explicit non-zero seed (derived seeds are not lease-stable)")
	}
	if !whole && (lo < 0 || hi <= lo) {
		return nil, badRequest("bad shard range [%d,%d)", lo, hi)
	}
	return func(ctx context.Context, ev *eventStream) (any, uint64, error) {
		seed := d.jobSeed(t, explicit)
		e, err := d.pool.checkout(ctx, poolKey{imageKey{app: app, scheme: s}, seed})
		if err != nil {
			return nil, 0, err
		}
		defer d.pool.checkin(d.ctx, e)
		tr := obs.TraceFrom(ctx)
		x := &Local{M: e.m, Img: e.img, Progress: func(pe ProgressEvent) {
			var cycles uint64
			if pe.Campaign != nil {
				cycles = pe.Campaign.Cycles
			}
			tr.Event("progress", cycles, pe.Kind)
			ev.progress(pe)
		}}
		res, err := body(ctx, x, seed)
		return res, x.Cycles, err
	}, nil
}

// campaignJob runs an attack campaign — whole, rendered as psspattack's
// AttackReport, or replications [Lo, Hi) as a lease. The victims are
// replicas derived purely from the seed, so running on a pooled machine is
// byte-identical to the CLI building a fresh one.
func (d *Daemon) campaignJob(raw json.RawMessage, t *tenant, whole bool) (jobRun, error) {
	var p CampaignShardParams
	if err := decodeWorkload(raw, whole, &p, &p.AttackParams); err != nil {
		return nil, err
	}
	p.AttackParams = NormalizeAttackParams(p.AttackParams)
	return d.workloadJob(t, whole, p.Target, p.Scheme, p.Seed, p.Lo, p.Hi, func(ctx context.Context, x *Local, seed uint64) (any, error) {
		a := p.AttackParams
		a.Seed = seed
		if whole {
			return RunAttack(ctx, a, x)
		}
		part, err := x.M.CampaignShards(ctx, x.Img, x.campaignConfig(a), p.Lo, p.Hi)
		if part != nil {
			for _, out := range part.Outcomes {
				x.Cycles += out.Cycles
			}
		}
		if err != nil {
			return nil, err
		}
		return CampaignShardResult{Partial: part}, nil
	})
}

// loadJob runs a load scenario — whole, rendered as psspload's report or,
// with Sweep, its offered-load sweep, or workload shards [Lo, Hi) as a
// lease. A lease is always a single workload: the coordinator scales and
// leases sweep points itself.
func (d *Daemon) loadJob(raw json.RawMessage, t *tenant, whole bool) (jobRun, error) {
	var p LoadShardParams
	if err := decodeWorkload(raw, whole, &p, &p.LoadParams); err != nil {
		return nil, err
	}
	if !whole && len(p.Sweep) > 0 {
		return nil, badRequest("loadshard takes a single workload; the coordinator scales sweep points itself")
	}
	// Zero-value params take psspload's flag defaults, so an API job and a
	// CLI invocation agree on the scenario.
	p.LoadParams = NormalizeLoadParams(p.LoadParams)
	// Validate arrivals before admission, so the error never costs a slot.
	if _, err := ParseArrivals(p.Arrivals); err != nil {
		return nil, err
	}
	return d.workloadJob(t, whole, p.App, p.Scheme, p.Seed, p.Lo, p.Hi, func(ctx context.Context, x *Local, seed uint64) (any, error) {
		lp := p.LoadParams
		lp.Seed = seed
		if whole {
			return RunLoad(ctx, lp, x)
		}
		cfg, err := LoadWorkload(lp, p.Label, seed)
		if err != nil {
			return nil, err
		}
		cfg.Progress = x.loadProgress()
		parts, err := x.M.LoadShards(ctx, x.Img, cfg, p.Lo, p.Hi)
		for _, part := range parts {
			x.Cycles += part.Makespan
		}
		if err != nil {
			return nil, err
		}
		return LoadShardResult{Partials: parts}, nil
	})
}

// fuzzJob runs a fuzzing campaign — whole, rendered as psspfuzz's report,
// or fuzzing shards [Lo, Hi) as a lease. A lease's BaseVirgin carries the
// coordinator's merged coverage frontier into every shard (the distributed
// frontier-sync path); a persistent corpus is the coordinator's to fold.
func (d *Daemon) fuzzJob(raw json.RawMessage, t *tenant, whole bool) (jobRun, error) {
	var p FuzzShardParams
	if err := decodeWorkload(raw, whole, &p, &p.FuzzParams); err != nil {
		return nil, err
	}
	p.FuzzParams = NormalizeFuzzParams(p.FuzzParams)
	return d.workloadJob(t, whole, p.App, p.Scheme, p.Seed, p.Lo, p.Hi, func(ctx context.Context, x *Local, seed uint64) (any, error) {
		sp := p
		sp.Seed = seed
		if whole {
			return RunFuzz(ctx, sp.FuzzParams, "", 0, x, nil)
		}
		parts, err := x.M.FuzzShards(ctx, x.Img, x.fuzzConfig(sp), p.Lo, p.Hi)
		for _, part := range parts {
			x.Cycles += part.Cycles
		}
		if err != nil {
			return nil, err
		}
		return FuzzShardResult{Partials: parts}, nil
	})
}
