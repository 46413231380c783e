package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/daemon"
	"repro/internal/rng"
	"repro/pssp"
)

// The attack workload is the paper's §VI-C effectiveness experiment as a
// batch campaign: one job is a round of two campaigns of the adaptive
// strategy against nginx-vuln, one on SSP victims and one on P-SSP
// victims.
const (
	attackTarget   = "nginx-vuln"
	attackStrategy = "adaptive"
	attackBudget   = 4096
	attackReps     = 8 // replications per scheme per round
)

var attackSchemes = [2]pssp.Scheme{pssp.SchemeSSP, pssp.SchemePSSP}

// campaignSpec is everything a campaign report depends on.
type campaignSpec struct {
	scheme  pssp.Scheme
	img     *pssp.Image
	reps    int
	workers int
	budget  int
	seed    uint64
}

func (c campaignSpec) config() pssp.CampaignConfig {
	return pssp.CampaignConfig{
		Strategy:     attackStrategy,
		Replications: c.reps,
		Workers:      c.workers,
		Seed:         c.seed,
		Attack:       pssp.AttackConfig{MaxTrials: c.budget},
	}
}

// report renders an aggregate the way psspattack -json and the daemon's
// attack job do.
func (c campaignSpec) report(res *pssp.CampaignResult) (daemon.AttackReport, []byte, error) {
	rep := daemon.BuildAttackReport(attackTarget, c.scheme, c.seed, c.budget, c.reps, c.workers, res)
	raw, err := json.Marshal(rep)
	return rep, raw, err
}

// runCampaign is the untraced path: the facade call users make.
func runCampaign(ctx context.Context, c campaignSpec) (daemon.AttackReport, []byte, error) {
	res, err := pssp.NewMachine().Campaign(ctx, c.img, c.config())
	if err != nil {
		return daemon.AttackReport{}, nil, err
	}
	return c.report(res)
}

// campaignReport runs c traced under parent when tr is set, else through
// the facade.
func campaignReport(ctx context.Context, tr *Tracer, parent int, c campaignSpec, out *runOutcome) (daemon.AttackReport, []byte, error) {
	if tr == nil {
		return runCampaign(ctx, c)
	}
	return tracedCampaign(ctx, tr, parent, c, out)
}

// tracedCampaign rebuilds Machine.Campaign from exported pieces —
// campaign.Run with a timed Runner, attack.Strategy with a timed Oracle —
// so boot, requests and the strategy's own work get separate spans. Its
// report must be byte-identical to runCampaign's.
func tracedCampaign(ctx context.Context, tr *Tracer, parent int, c campaignSpec, out *runOutcome) (daemon.AttackReport, []byte, error) {
	strat, err := attack.StrategyByName(attackStrategy)
	if err != nil {
		return daemon.AttackReport{}, nil, err
	}
	acfg := attack.Config{BufLen: pssp.VulnServerBufSize, MaxTrials: c.budget}
	sp := tr.Begin("campaign.run", parent)
	runner := func(ctx context.Context, rep int, r *rng.Source) (campaign.Outcome, error) {
		rs := tr.Begin("campaign.replication", sp)
		defer tr.End(rs)
		// Machine.Campaign's victim derivation: a second-level stream of
		// the replication, so guesses and canaries never share state.
		victim := pssp.NewMachine(pssp.WithSeed(rng.Mix(rng.Mix(c.seed, uint64(rep)), 1)))
		b := tr.Begin("kernel.boot", rs)
		srv, err := victim.Serve(ctx, c.img)
		tr.End(b)
		if err != nil {
			return campaign.Outcome{}, attack.WrapOracleErr(err)
		}
		o := &timedOracle{ctx: ctx, srv: srv}
		st := tr.Begin("attack.strategy", rs)
		res, err := strat.Attack(ctx, o, acfg, r)
		tr.AddLeaves(st, o.calls, o.ns)
		out.request(o.calls, o.ns)
		tr.End(st)
		if err != nil {
			return campaign.Outcome{}, err
		}
		verified := false
		if res.Success {
			canary, err := srv.Canary()
			if err != nil {
				return campaign.Outcome{}, fmt.Errorf("verifying replication %d: %w", rep, err)
			}
			verified = res.RecoveredWord() == canary
		}
		return campaign.Outcome{
			Success:     res.Success,
			Verified:    verified,
			Trials:      res.Trials,
			FailedAt:    res.FailedAt,
			Restarts:    res.Restarts,
			Detections:  srv.Crashes(),
			OracleCalls: srv.Requests(),
			Cycles:      srv.TotalCycles(),
			Insts:       srv.TotalInsts(),
			Mem:         srv.Footprint(),
		}, nil
	}
	agg, err := campaign.Run(ctx, campaign.Config{
		Label:        strat.Name(),
		Replications: c.reps,
		Workers:      c.workers,
		Seed:         c.seed,
	}, runner)
	tr.End(sp)
	if err != nil {
		return daemon.AttackReport{}, nil, err
	}
	out.victim(agg.Insts, agg.MaxMem)
	return c.report(agg)
}

// timedOracle is the crash oracle of Machine.Campaign, with every request
// timed. One oracle serves one replication, on one goroutine.
type timedOracle struct {
	ctx   context.Context
	srv   *pssp.Server
	calls int
	ns    int64
}

// Try implements attack.Oracle.
func (o *timedOracle) Try(payload []byte) (bool, error) {
	t0 := time.Now()
	resp, err := o.srv.Handle(o.ctx, payload)
	o.ns += int64(time.Since(t0))
	o.calls++
	if err != nil {
		return false, attack.WrapOracleErr(err)
	}
	return !resp.Crashed(), nil
}

// checkAttackReport holds a report to the paper's known answer, which the
// code under test does not decide: the static SSP canary falls to every
// replication, verified against the victim's TLS canary, and the
// polymorphic P-SSP canary to none.
func checkAttackReport(rep daemon.AttackReport, scheme pssp.Scheme) error {
	if rep.Completed != rep.Replications || rep.OracleErrors != 0 {
		return fmt.Errorf("%s seed %d: %d/%d replications completed, %d oracle errors",
			scheme, rep.Seed, rep.Completed, rep.Replications, rep.OracleErrors)
	}
	switch scheme {
	case pssp.SchemeSSP:
		if rep.Verified != rep.Replications {
			return fmt.Errorf("ssp seed %d: %d/%d replications are verified successes",
				rep.Seed, rep.Verified, rep.Replications)
		}
	case pssp.SchemePSSP:
		if rep.Successes != 0 {
			return fmt.Errorf("p-ssp seed %d: %d successes, want 0", rep.Seed, rep.Successes)
		}
	}
	return nil
}

type attackBench struct {
	imgs [2]*pssp.Image
}

func setupAttack(ctx context.Context, _ uint64) (runner, time.Duration, error) {
	b := &attackBench{}
	var compile time.Duration
	for i, s := range attackSchemes {
		t0 := time.Now()
		img, err := pssp.NewMachine(pssp.WithScheme(s)).CompileApp(attackTarget)
		compile += time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		b.imgs[i] = img
		if err := bootCheck(ctx, img); err != nil {
			return nil, 0, err
		}
	}
	return b, compile, nil
}

// bootCheck boots img once and retires it: the image parks in accept.
func bootCheck(ctx context.Context, img *pssp.Image) error {
	m := pssp.NewMachine()
	defer m.Close()
	srv, err := m.Serve(ctx, img)
	if err != nil {
		return err
	}
	if !srv.Parked() {
		return fmt.Errorf("%s did not park in accept", img.Name())
	}
	return nil
}

func (b *attackBench) close() {}

func (b *attackBench) spec(seed uint64, round, k int) campaignSpec {
	return campaignSpec{
		scheme:  attackSchemes[k],
		img:     b.imgs[k],
		reps:    attackReps,
		workers: runtime.NumCPU(),
		budget:  attackBudget,
		seed:    jobSeed(seed, uint64(2*round+k)),
	}
}

func (b *attackBench) run(ctx context.Context, p runParams) (*runOutcome, error) {
	out := newRunOutcome(runtime.NumCPU())
	var traced [][2][]byte // per round, for the identity re-check
	err := out.loop(p, func(round int) error {
		var raws [2][]byte
		ops, failed, root := 0, false, -1
		if p.tr != nil {
			root = p.tr.Begin("round", -1)
		}
		for k, s := range attackSchemes {
			rep, raw, err := campaignReport(ctx, p.tr, root, b.spec(p.seed, round, k), out)
			if err != nil {
				return err
			}
			ops += rep.Trials
			if err := checkAttackReport(rep, s); err != nil {
				out.fail(err)
				failed = true
			}
			raws[k] = raw
		}
		if p.tr != nil {
			p.tr.End(root)
			traced = append(traced, raws)
		}
		out.ops.job(ops, failed)
		out.digest(round, raws[0], raws[1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.tr == nil {
		return out, nil
	}
	// The traced rounds' reports must equal the facade's, byte for byte.
	for round, raws := range traced {
		for k := range attackSchemes {
			_, want, err := runCampaign(ctx, b.spec(p.seed, round, k))
			if err != nil {
				return nil, err
			}
			if string(want) != string(raws[k]) {
				out.fail(fmt.Errorf("round %d %s: traced report differs from Machine.Campaign's", round, attackSchemes[k]))
				out.ops.failAll()
			}
		}
	}
	return out, nil
}
