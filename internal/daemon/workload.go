package daemon

import (
	"context"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pssp"
)

// Workload jobs: each kind (campaign, loadtest, fuzz) has one job function
// over a shard range of its resolved plan, and every run is "plan → shards
// [lo,hi) → merge". Only the range and the merge site differ by route:
//
//   - a whole job (attack/loadtest/fuzz) runs the full range [0,n) under
//     its explicit or tenant-derived seed, merges the partials here, and
//     renders the CLI's report;
//   - a shard job (campaignshard/loadshard/fuzzshard) is a fabric lease: it
//     runs [Lo,Hi) and returns the raw partials for the coordinator to
//     merge.
//
// Both routes charge the tenant the sum of their shards' victim cycles, so
// a scenario costs the same whether it ran whole or as leases.
//
// Shard jobs require an explicit non-zero Seed: a derived seed would be
// drawn per request, so a lost lease re-issued to another worker would run
// a different scenario and the fabric's bit-identical merge would break.

// checkLease validates a shard job's explicit seed and half-open range
// (a whole job has neither to check); upper bounds are checked downstream
// against the resolved scenario.
func checkLease(whole bool, seed uint64, lo, hi int) error {
	if whole {
		return nil
	}
	if seed == 0 {
		return badRequest("shard jobs require an explicit non-zero seed (derived seeds are not lease-stable)")
	}
	if lo < 0 || hi <= lo {
		return badRequest("bad shard range [%d,%d)", lo, hi)
	}
	return nil
}

// rangeBody runs one workload job on a checked-out machine under the
// resolved seed, returning the result and its victim-cycle cost.
type rangeBody func(ctx context.Context, ev *eventStream, e *entry, seed uint64) (any, uint64, error)

// workloadJob wraps a kind's body into a jobRun: resolve the seed (0
// derives from the tenant stream, which only whole jobs allow), check out
// the warm machine for (app, scheme, seed), run, check it back in.
func (d *Daemon) workloadJob(t *tenant, app string, s pssp.Scheme, explicit uint64, body rangeBody) jobRun {
	return func(ctx context.Context, ev *eventStream) (any, uint64, error) {
		seed := d.jobSeed(t, explicit)
		e, err := d.pool.checkout(ctx, poolKey{imageKey{app: app, scheme: s}, seed})
		if err != nil {
			return nil, 0, err
		}
		defer d.pool.checkin(d.ctx, e)
		return body(ctx, ev, e, seed)
	}
}

// campaignJob runs replications [Lo, Hi) of an attack campaign — all of
// them for a whole job, rendered as psspattack's AttackReport. The victims
// are replicas derived purely from the seed, so running on a pooled machine
// is byte-identical to the CLI building a fresh one.
func (d *Daemon) campaignJob(p CampaignShardParams, t *tenant, whole bool) (jobRun, error) {
	p.AttackParams = NormalizeAttackParams(p.AttackParams)
	s, err := parseScheme(p.Scheme, "ssp")
	if err != nil {
		return nil, err
	}
	if err := checkLease(whole, p.Seed, p.Lo, p.Hi); err != nil {
		return nil, err
	}
	return d.workloadJob(t, p.Target, s, p.Seed, func(ctx context.Context, ev *eventStream, e *entry, seed uint64) (any, uint64, error) {
		tr := obs.TraceFrom(ctx)
		cfg := CampaignConfig(p.AttackParams, seed)
		cfg.Progress = func(cp pssp.CampaignProgress) {
			tr.Event("campaign progress", cp.Cycles, "")
			ev.progress(ProgressEvent{Kind: "attack", Campaign: &cp})
		}
		if whole {
			res, err := e.m.Campaign(ctx, e.img, cfg)
			var cost uint64
			if res != nil {
				cost = res.Cycles
			}
			if err != nil && !canceledPartial(err, res != nil && res.Completed > 0) {
				return nil, cost, err
			}
			rep := BuildAttackReport(p.Target, s, seed, p.Budget, p.Repeats, p.Workers, res)
			rep.Canceled = err != nil
			return rep, cost, nil
		}
		part, err := e.m.CampaignShards(ctx, e.img, cfg, p.Lo, p.Hi)
		var cost uint64
		if part != nil {
			for _, out := range part.Outcomes {
				cost += out.Cycles
			}
		}
		if err != nil {
			return nil, cost, err
		}
		return CampaignShardResult{Partial: part}, cost, nil
	}), nil
}

// loadJob runs workload shards [Lo, Hi) of a load scenario — all of them
// for a whole job, rendered as psspload's report or, with Sweep, as the
// offered-load sweep whose every point is itself a whole [0,n) run. A
// lease is always a single workload: the coordinator scales and leases
// sweep points itself.
func (d *Daemon) loadJob(p LoadShardParams, t *tenant, whole bool) (jobRun, error) {
	if !whole && len(p.Sweep) > 0 {
		return nil, badRequest("loadshard takes a single workload; the coordinator scales sweep points itself")
	}
	// Zero-value params take psspload's flag defaults, so an API job and a
	// CLI invocation agree on the scenario.
	p.LoadParams = NormalizeLoadParams(p.LoadParams)
	s, err := parseScheme(p.Scheme, "p-ssp")
	if err != nil {
		return nil, err
	}
	// Validate arrivals before admission, so the error never costs a slot.
	if _, err := ParseArrivals(p.Arrivals); err != nil {
		return nil, err
	}
	if err := checkLease(whole, p.Seed, p.Lo, p.Hi); err != nil {
		return nil, err
	}
	return d.workloadJob(t, p.App, s, p.Seed, func(ctx context.Context, ev *eventStream, e *entry, seed uint64) (any, uint64, error) {
		tr := obs.TraceFrom(ctx)
		var cost uint64
		// resolve maps one workload's params onto its facade config and
		// engine plan; run executes a range of it and charges the range.
		resolve := func(sp LoadShardParams) (pssp.WorkloadConfig, pssp.LoadPlan, error) {
			cfg, err := LoadWorkload(sp.LoadParams, sp.Label, seed)
			if err != nil {
				return cfg, pssp.LoadPlan{}, err
			}
			cfg.Progress = func(lp pssp.LoadProgress) {
				tr.Event("load progress", lp.P99Cycles, "")
				ev.progress(ProgressEvent{Kind: "loadtest", Load: &lp})
			}
			plan, err := e.m.LoadPlan(e.img, cfg)
			return cfg, plan, err
		}
		run := func(ctx context.Context, cfg pssp.WorkloadConfig, lo, hi int) ([]*pssp.LoadPartial, error) {
			parts, err := e.m.LoadShards(ctx, e.img, cfg, lo, hi)
			for _, part := range parts {
				cost += part.Makespan
			}
			return parts, err
		}
		if !whole {
			cfg, _, err := resolve(p)
			if err != nil {
				return nil, 0, err
			}
			parts, err := run(ctx, cfg, p.Lo, p.Hi)
			if err != nil {
				return nil, cost, err
			}
			return LoadShardResult{Partials: parts}, cost, nil
		}
		// point is one whole workload: shards [0,n) of its plan, merged.
		point := func(ctx context.Context, sp LoadShardParams) (*pssp.LoadReport, error) {
			cfg, plan, err := resolve(sp)
			if err != nil {
				return nil, err
			}
			norm, err := plan.Normalize()
			if err != nil {
				return nil, err
			}
			parts, err := run(ctx, cfg, 0, norm.Shards)
			rep, merr := pssp.MergeLoadPartials(plan, parts)
			if merr != nil {
				return nil, merr
			}
			return rep, err
		}
		var (
			res        LoadResult
			progressed bool
			err        error
		)
		if len(p.Sweep) > 0 {
			var base pssp.LoadPlan
			if _, base, err = resolve(p); err != nil {
				return nil, 0, err
			}
			res.Sweep, err = loadgen.Sweep(ctx, base, p.Sweep, func(ctx context.Context, plan pssp.LoadPlan) (*pssp.LoadReport, error) {
				return point(ctx, PointParams(p.LoadParams, plan))
			})
			progressed = res.Sweep != nil && len(res.Sweep.Points) > 0
		} else {
			res.Report, err = point(ctx, p)
			progressed = res.Report != nil && res.Report.Requests > 0
		}
		if err != nil {
			if !canceledPartial(err, progressed) {
				return nil, cost, err
			}
			res.Canceled = true
		}
		return res, cost, nil
	}), nil
}

// fuzzJob runs fuzzing shards [Lo, Hi) of a fuzzing campaign — all of them
// for a whole job, rendered as psspfuzz's report. A lease's BaseVirgin
// carries the coordinator's merged coverage frontier into every shard (the
// distributed frontier-sync path); CorpusDir, when set, flock-merges the
// lease's discoveries into a shared persistent corpus before the result
// ships.
func (d *Daemon) fuzzJob(p FuzzShardParams, t *tenant, whole bool) (jobRun, error) {
	p.FuzzParams = NormalizeFuzzParams(p.FuzzParams)
	s, err := parseScheme(p.Scheme, "ssp")
	if err != nil {
		return nil, err
	}
	if err := checkLease(whole, p.Seed, p.Lo, p.Hi); err != nil {
		return nil, err
	}
	return d.workloadJob(t, p.App, s, p.Seed, func(ctx context.Context, ev *eventStream, e *entry, seed uint64) (any, uint64, error) {
		tr := obs.TraceFrom(ctx)
		cfg := FuzzConfig(p.FuzzParams, seed, p.BaseVirgin)
		cfg.Label = p.Label
		cfg.Progress = func(fp pssp.FuzzProgress) {
			tr.Event("fuzz round", 0, "")
			ev.progress(ProgressEvent{Kind: "fuzz", Fuzz: &fp})
		}
		if whole {
			rep, err := e.m.Fuzz(ctx, e.img, cfg)
			var cost uint64
			if rep != nil {
				cost = rep.Cycles
			}
			if err != nil && !canceledPartial(err, rep != nil && rep.Execs > 0) {
				return nil, cost, err
			}
			return FuzzResult{FuzzReport: rep, Canceled: err != nil}, cost, nil
		}
		parts, err := e.m.FuzzShards(ctx, e.img, cfg, p.Lo, p.Hi)
		var cost uint64
		for _, part := range parts {
			cost += part.Cycles
		}
		if err != nil {
			return nil, cost, err
		}
		res := FuzzShardResult{Partials: parts}
		if p.CorpusDir != "" {
			// Fold only this lease's shards into a subset report to harvest
			// its corpus inputs and frontier; content-hash dedup makes the
			// flock'd merge idempotent across re-issued leases.
			plan, err := e.m.FuzzPlan(e.img, cfg)
			if err != nil {
				return nil, cost, err
			}
			sub, err := pssp.MergeFuzzPartials(plan, parts)
			if err != nil {
				return nil, cost, err
			}
			corp, err := store.OpenCorpus(p.CorpusDir)
			if err != nil {
				return nil, cost, err
			}
			if res.CorpusAdded, err = corp.Add(sub.CorpusInputs()); err != nil {
				return nil, cost, err
			}
			if err := corp.SaveFrontier(sub.Frontier()); err != nil {
				return nil, cost, err
			}
		}
		return res, cost, nil
	}), nil
}
