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
	"repro/internal/rng"
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

// LoadSweepPoint is one offered-load step of a sweep; see loadgen.SweepPoint.
type LoadSweepPoint = loadgen.SweepPoint

// FuzzPlan is a fuzzing run's resolved engine configuration; see
// fuzz.Config.
type FuzzPlan = fuzz.Config

// FuzzPartial is the wire-form result of one fuzzing shard; see
// fuzz.Partial.
type FuzzPartial = fuzz.Partial

// FuzzStallSummary reports a continuous (until-stall) fuzzing run's
// convergence; see FuzzUntilStall.
type FuzzStallSummary struct {
	// Rounds is the number of rounds executed; StallRounds the configured
	// consecutive-unchanged-frontier stop threshold.
	Rounds      int `json:"rounds"`
	StallRounds int `json:"stall_rounds"`
	// TotalExecs sums executions across rounds (the final report's Execs
	// covers only the last round).
	TotalExecs int `json:"total_execs"`
}

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
	lc, err := m.resolveWorkload(img, cfg)
	if err != nil {
		return nil, err
	}
	return loadgen.RunShards(ctx, lc, m.bootShards(img, lc.Seed), lo, hi)
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

// FuzzRound runs one round of a continuous fuzzing run under the round's
// mutation seed, seed corpus and base frontier.
type FuzzRound func(ctx context.Context, seed uint64, seeds [][]byte, baseVirgin []byte) (*FuzzReport, error)

// FuzzUntilStall is the one continuous-fuzzing loop — psspfuzz
// -until-stall runs it with in-process rounds, the fabric coordinator with
// leased ones — so both emit byte-comparable reports. It runs rounds until
// the frontier hash is unchanged for stall consecutive rounds (stall <= 0
// means 1). Round r>0 re-derives its mutation seed as rng.Mix(seed, r) and
// seeds itself with baseSeeds plus every input discovered so far, with the
// accumulated frontier as its base virgin map. When load is non-nil the
// discoveries live in a shared persistent corpus that load re-reads before
// every round (so concurrent runs sharing it contribute too, and the round
// itself must fold its discoveries back); otherwise they carry over in
// memory. logf receives one line per round. The frontier is monotone and
// bounded, so the loop terminates. The returned report is the final
// round's: its frontier and corpus are cumulative by construction.
func FuzzUntilStall(ctx context.Context, seed uint64, baseSeeds [][]byte, stall int,
	load func() (saved [][]byte, frontier []byte, err error), round FuzzRound,
	logf func(format string, args ...any)) (*FuzzReport, *FuzzStallSummary, error) {
	if stall <= 0 {
		stall = 1
	}
	seeds := baseSeeds
	var baseVirgin []byte
	sum := &FuzzStallSummary{StallRounds: stall}
	var rep *FuzzReport
	same := 0
	for {
		rseed := seed
		if sum.Rounds > 0 {
			rseed = rng.Mix(seed, uint64(sum.Rounds))
		}
		if load != nil {
			saved, frontier, err := load()
			if err != nil {
				return rep, sum, err
			}
			seeds = append(append([][]byte{}, baseSeeds...), saved...)
			baseVirgin = frontier
		}
		r, err := round(ctx, rseed, seeds, baseVirgin)
		if err != nil {
			return rep, sum, err
		}
		if rep != nil && r.CoverageHash == rep.CoverageHash {
			same++
		} else {
			same = 0
		}
		rep = r
		sum.Rounds++
		sum.TotalExecs += r.Execs
		if load == nil {
			seeds = append(append([][]byte{}, baseSeeds...), r.CorpusInputs()...)
			baseVirgin = r.Frontier()
		}
		logf("round %d: %d edges, frontier %016x (%d/%d stalled)",
			sum.Rounds, r.Edges, r.CoverageHash, same, stall)
		if same >= stall {
			return rep, sum, nil
		}
	}
}
