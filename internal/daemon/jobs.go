package daemon

import (
	"context"
	"errors"

	"repro/pssp"
)

// jobRun executes one admitted job: it returns the result object for the
// terminal response, the victim-cycle cost to charge the tenant, and an
// error. A canceled job that still produced a partial report returns it as
// a result (flagged Canceled) rather than an error — partial data is the
// point of graceful cancellation.
type jobRun func(ctx context.Context, ev *eventStream) (result any, cost uint64, err error)

// jobFor validates a request into a runnable job. Validation errors (bad
// method, unknown scheme/arrivals) surface before admission, so they never
// consume a queue slot.
func (d *Daemon) jobFor(req Request, t *tenant) (jobRun, error) {
	switch req.Method {
	case "compile":
		var p CompileParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.compileJob(p)
	case "boot":
		var p BootParams
		if err := unmarshalParams(req.Params, &p); err != nil {
			return nil, err
		}
		return d.bootJob(p, t)
	case "attack", "campaignshard":
		return d.campaignJob(req.Params, t, req.Method == "attack")
	case "loadtest", "loadshard":
		return d.loadJob(req.Params, t, req.Method == "loadtest")
	case "fuzz", "fuzzshard":
		return d.fuzzJob(req.Params, t, req.Method == "fuzz")
	default:
		return nil, badRequest("unknown method %q", req.Method)
	}
}

// parseScheme maps a wire scheme name (with a per-method default for "")
// onto pssp.Scheme as a bad-request on failure.
func parseScheme(name, dflt string) (pssp.Scheme, error) {
	if name == "" {
		name = dflt
	}
	s, err := pssp.ParseScheme(name)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return s, nil
}

// canceledPartial reports whether err is a cancellation that still left a
// usable partial report.
func canceledPartial(err error, hasReport bool) bool {
	return hasReport &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

func (d *Daemon) compileJob(p CompileParams) (jobRun, error) {
	if p.App == "" {
		p.App = "nginx-vuln"
	}
	s, err := parseScheme(p.Scheme, "ssp")
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, _ *eventStream) (any, uint64, error) {
		_, cached, err := d.pool.image(ctx, imageKey{app: p.App, scheme: s})
		if err != nil {
			return nil, 0, err
		}
		return CompileResult{App: p.App, Scheme: s.String(), Cached: cached}, 0, nil
	}, nil
}

func (d *Daemon) bootJob(p BootParams, t *tenant) (jobRun, error) {
	if p.App == "" {
		p.App = "nginx-vuln"
	}
	s, err := parseScheme(p.Scheme, "ssp")
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, _ *eventStream) (any, uint64, error) {
		seed := d.jobSeed(t, p.Seed)
		e, err := d.pool.checkout(ctx, poolKey{imageKey{app: p.App, scheme: s}, seed})
		if err != nil {
			return nil, 0, err
		}
		res := BootResult{
			App: p.App, Scheme: s.String(), Seed: seed,
			FootprintBytes: e.srv.Footprint(),
		}
		d.pool.checkin(d.ctx, e)
		return res, 0, nil
	}, nil
}
