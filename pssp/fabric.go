// fabric.go is the facade's shard seam: the plan/shard/merge triple every
// evaluation run goes through. Campaign, LoadTest and Fuzz run the whole
// range [0,n) in-process (the engines' Run is RunShards plus the merge); a
// fabric worker runs a lease's subrange via the *Shards methods, with the
// same runner/boot closures; and the coordinator folds the returned wire
// partials with the Merge* functions — the same fold, so distributed
// reports are bit-identical to local ones by construction.
package pssp

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/loadgen"
)

// CampaignPlan is a campaign's resolved engine configuration; see
// campaign.Config.
type CampaignPlan = campaign.Config

// CampaignPartial is the wire-form result of a campaign replication range;
// see campaign.Partial.
type CampaignPartial = campaign.Partial

// LoadPlan is a workload's resolved engine configuration; see
// loadgen.Config. It is resolved but not normalized — callers normalize
// per run (via its Normalize method), which matters for sweeps: each sweep
// point scales the resolved scenario with loadgen.Scale and then
// normalizes, exactly as LoadSweep does.
type LoadPlan = loadgen.Config

// LoadPartial is the wire-form result of one workload shard; see
// loadgen.Partial.
type LoadPartial = loadgen.Partial

// FuzzPlan is a fuzzing run's resolved engine configuration; see
// fuzz.Config.
type FuzzPlan = fuzz.Config

// FuzzPartial is the wire-form result of one fuzzing shard; see
// fuzz.Partial.
type FuzzPartial = fuzz.Partial

// CampaignPlan resolves cfg exactly as Campaign would — strategy-conflict
// validation, attack-frame defaults, seed defaulting — and returns the
// engine plan a coordinator partitions into leases. No image is needed:
// resolution touches only the machine configuration and the strategy
// registry, so a coordinator resolves plans without booting victims.
func (m *Machine) CampaignPlan(cfg CampaignConfig) (CampaignPlan, error) {
	plan, _, err := m.campaignPlan(nil, cfg)
	return plan, err
}

// CampaignShards runs only replications [lo, hi) of the campaign — the
// fabric worker's slice of a lease. Replication indices keep their global
// meaning, so every victim machine and attacker stream is identical to the
// single-process run's.
func (m *Machine) CampaignShards(ctx context.Context, img *Image, cfg CampaignConfig, lo, hi int) (*CampaignPartial, error) {
	plan, runner, err := m.campaignPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	return campaign.RunShards(ctx, plan, lo, hi, runner)
}

// MergeCampaignPartials folds worker partials into the aggregate Campaign
// would have produced for the same plan; order- and duplicate-insensitive
// (see campaign.MergePartials).
func MergeCampaignPartials(plan CampaignPlan, parts []*CampaignPartial) *CampaignResult {
	return campaign.MergePartials(plan, parts)
}

// LoadPlan resolves cfg exactly as LoadTest would — mix defaulting, probe
// strategy resolution, arrival-model defaults — and returns the engine
// scenario a coordinator partitions into shard leases (after normalizing).
func (m *Machine) LoadPlan(img *Image, cfg WorkloadConfig) (LoadPlan, error) {
	return m.resolveWorkload(img, cfg)
}

// LoadShards runs only shards [lo, hi) of the workload. Shard indices keep
// their global meaning, so client partitions, rng streams, and budget
// shares are identical to the single-process run's.
func (m *Machine) LoadShards(ctx context.Context, img *Image, cfg WorkloadConfig, lo, hi int) ([]*LoadPartial, error) {
	plan, err := m.resolveWorkload(img, cfg)
	if err != nil {
		return nil, err
	}
	return m.LoadPlanShards(ctx, img, plan, lo, hi)
}

// LoadPlanShards is LoadShards of an already resolved plan, for a caller
// that holds the plan for its merge (a whole run, a sweep point).
func (m *Machine) LoadPlanShards(ctx context.Context, img *Image, plan LoadPlan, lo, hi int) ([]*LoadPartial, error) {
	return loadgen.RunShards(ctx, plan, m.bootShards(img, plan.Seed), lo, hi)
}

// MergeLoadPartials folds worker partials into the report LoadTest would
// have produced for the same plan; order- and duplicate-insensitive (see
// loadgen.MergePartials).
func MergeLoadPartials(plan LoadPlan, parts []*LoadPartial) (*LoadReport, error) {
	return loadgen.MergePartials(plan, parts)
}

// FuzzPlan resolves cfg exactly as Fuzz would — seed-corpus and label
// defaulting, seed derivation — and returns the normalized engine plan, so
// a coordinator sees the final shard count and the resolved seed corpus it
// must ship to workers.
func (m *Machine) FuzzPlan(img *Image, cfg FuzzConfig) (FuzzPlan, error) {
	fc, _, err := m.fuzzPlan(img, cfg)
	if err != nil {
		return FuzzPlan{}, err
	}
	return fc.Normalize()
}

// FuzzShards runs only shards [lo, hi) of the fuzzing campaign. Shard
// indices keep their global meaning, so victim machines, mutation streams,
// and budget shares are identical to the single-process run's.
func (m *Machine) FuzzShards(ctx context.Context, img *Image, cfg FuzzConfig, lo, hi int) ([]*FuzzPartial, error) {
	fc, boot, err := m.fuzzPlan(img, cfg)
	if err != nil {
		return nil, err
	}
	return fuzz.RunShards(ctx, fc, boot, lo, hi)
}

// MergeFuzzPartials folds worker partials into the report Fuzz would have
// produced for the same plan; order- and duplicate-insensitive (see
// fuzz.MergePartials).
func MergeFuzzPartials(plan FuzzPlan, parts []*FuzzPartial) (*FuzzReport, error) {
	return fuzz.MergePartials(plan, parts)
}
