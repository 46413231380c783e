package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// TestReportsByteIdenticalWithMetrics is the observability layer's core
// contract: metrics and flight recording are pure read-side, so at a fixed
// explicit seed the campaign, loadtest, and fuzz reports are
// byte-identical whether the full observability stack (daemon registry +
// recorder, kernel and workpool package metrics) is installed or absent.
func TestReportsByteIdenticalWithMetrics(t *testing.T) {
	jobs := []struct {
		method string
		params any
	}{
		{"attack", AttackParams{Scheme: "ssp", Budget: 1024, Repeats: 2, Workers: 2, Seed: 77}},
		{"loadtest", LoadParams{App: "nginx", Scheme: "p-ssp", Arrivals: "poisson",
			Rate: 10, Requests: 64, Shards: 4, Workers: 2, Seed: 77}},
		{"fuzz", FuzzParams{App: "nginx-vuln", Scheme: "ssp", Execs: 512, Shards: 4, Workers: 2, Seed: 77}},
	}

	// run executes every job on a fresh daemon and returns the marshaled
	// reports keyed by method.
	run := func(t *testing.T, withMetrics bool) map[string][]byte {
		t.Helper()
		var cfg Config
		if withMetrics {
			cfg.Metrics = obs.NewRegistry()
			cfg.Recorder = obs.NewRecorder(8, 64)
			kernel.SetMetrics(cfg.Metrics)
			workpool.SetMetrics(cfg.Metrics)
			t.Cleanup(func() {
				kernel.SetMetrics(nil)
				workpool.SetMetrics(nil)
			})
		}
		d := New(cfg)
		defer d.Shutdown(context.Background())
		out := make(map[string][]byte, len(jobs))
		for _, j := range jobs {
			// Exercise the trace spans too: a progress callback records
			// events into the job's trace when the recorder is installed.
			res, err := d.Do(context.Background(), "ident", j.method, j.params, func(ProgressEvent) {})
			if err != nil {
				t.Fatalf("%s (metrics=%v): %v", j.method, withMetrics, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("marshal %s: %v", j.method, err)
			}
			out[j.method] = raw
		}
		if withMetrics {
			// The registry must actually have observed the jobs, or the
			// comparison proves nothing.
			text := cfg.Metrics.Text()
			for _, series := range []string{"daemon_jobs_admitted_total 3", "kernel_forkserver_requests_total"} {
				if !bytes.Contains([]byte(text), []byte(series)) {
					t.Fatalf("metrics text missing %q:\n%s", series, text)
				}
			}
		}
		return out
	}

	plain := run(t, false)
	metered := run(t, true)
	for _, j := range jobs {
		if !bytes.Equal(plain[j.method], metered[j.method]) {
			t.Errorf("%s report changed under metrics:\noff: %s\non:  %s",
				j.method, plain[j.method], metered[j.method])
		}
	}
}
