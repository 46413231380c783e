package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/pssp"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{n: 20, p: 0.5, value: 10, beyond: 10},
		{n: 90, p: 80.0 / 90, value: 80, beyond: 10},
		{n: 100, p: 0.9, value: 90, beyond: 10},
		{n: 1000, p: 0.99, value: 990, beyond: 10},
		{n: 5000, p: 0.99, value: 4950, beyond: 50}, // capped at p99
	} {
		q, ok := Tail(vals(tc.n))
		if !ok || q.P != tc.p || q.Value != tc.value || q.Beyond != tc.beyond || q.N != tc.n {
			t.Errorf("Tail(n=%d) = %+v, %v; want p=%v value=%v beyond=%d", tc.n, q, ok, tc.p, tc.value, tc.beyond)
		}
	}
	if q, ok := Tail(vals(19)); ok {
		t.Errorf("Tail(n=19) = %+v, want no percentile at or above the median with 10 beyond", q)
	}
	if m := Median(vals(9)); m.Value != 5 || m.Beyond != 4 {
		t.Errorf("Median(1..9) = %+v, want 5 with 4 beyond", m)
	}
}

func TestErrorRateCountsWholeFailedJobs(t *testing.T) {
	var c opCount
	c.job(100, false)
	c.job(30, true) // a failed job's ops all count as failed
	c.job(70, false)
	if c.Attempted != 200 || c.Failed != 30 || c.Rate() != 0.15 {
		t.Fatalf("got %+v rate %v, want 30 of 200 failed", c, c.Rate())
	}
	c.failAll() // a report failing a check taints the whole run
	if c.Rate() != 1 {
		t.Fatalf("after failAll rate = %v, want 1", c.Rate())
	}
	if (opCount{}).Rate() != 0 {
		t.Fatal("an empty run must read error_rate 0")
	}
}

func TestSelfTimeSubtractsNestedChildrenOnce(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		// Two parallel children overlapping on [20,30]: they cover 10..40.
		{Name: "child", Parent: 0, Start: 10, End: 30},
		{Name: "child", Parent: 0, Start: 20, End: 40},
		// A grandchild is covered by its parent, not by the root again.
		{Name: "grandchild", Parent: 1, Start: 12, End: 18},
		// A child sticking out of the root is clipped to it.
		{Name: "late", Parent: 0, Start: 90, End: 120},
		// Sequential leaves (kernel requests) inside a span.
		{Name: "strategy", Parent: -1, Start: 200, End: 300, Leaves: 4, LeafNs: 60},
	}
	self := SelfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 6, 30, 100 - 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	lt := layerTotals(spans)
	if c := lt["child"]; c.Count != 2 || c.WallNs != 40 || c.SelfNs != 34 {
		t.Errorf("child totals = %+v", *c)
	}
	if s := lt["strategy"]; s.Leaves != 4 || s.LeafNs != 60 || s.SelfNs != 40 {
		t.Errorf("strategy totals = %+v", *s)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("root", -1)
	kid := tr.Begin("kid", root)
	tr.AddLeaves(kid, 3, 0)
	tr.End(kid)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Leaves != 3 ||
		spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("spans = %+v", spans)
	}
}

// tiny runs exactly n jobs: a zero window with a job floor.
func tiny(seed uint64, n int, tr *Tracer) runParams {
	return runParams{seed: seed, minJobs: n, tr: tr}
}

// runTwice runs a workload untraced and traced on one seed and checks
// that both pass their checks and report the same digests: the traced
// run's reports are byte-identical to the untraced run's, and repeated
// runs of the same code agree.
func runTwice(t *testing.T, setup func(context.Context, uint64) (runner, error), jobs int) {
	t.Helper()
	ctx := context.Background()
	var digests []string
	for _, tr := range []*Tracer{nil, NewTracer(), nil} {
		r, err := setup(ctx, 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.run(ctx, tiny(7, jobs, tr))
		r.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.failures) > 0 || out.ops.Failed != 0 || out.ops.Attempted == 0 {
			t.Fatalf("traced=%v: failures %v, ops %+v", tr != nil, out.failures, out.ops)
		}
		digests = append(digests, out.runDigest())
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Fatalf("digests differ across untraced, traced and repeated runs: %v", digests)
	}
}

func dropCompile(f func(context.Context, uint64) (runner, time.Duration, error)) func(context.Context, uint64) (runner, error) {
	return func(ctx context.Context, seed uint64) (runner, error) {
		r, _, err := f(ctx, seed)
		return r, err
	}
}

func TestFuzzTracedMatchesUntraced(t *testing.T) {
	runTwice(t, dropCompile(setupFuzz), digestJobs)
}

func TestDaemonMixTracedMatchesUntraced(t *testing.T) {
	t.Chdir(t.TempDir()) // the daemon's socket directory
	runTwice(t, dropCompile(setupDaemonMix), digestJobs)
}

// The attack workload's rounds are long, so its traced path is checked
// on small campaigns of both schemes.
func TestTracedCampaignMatchesMachineCampaign(t *testing.T) {
	ctx := context.Background()
	for _, s := range attackSchemes {
		img, err := pssp.NewMachine(pssp.WithScheme(s)).CompileApp(attackTarget)
		if err != nil {
			t.Fatal(err)
		}
		c := campaignSpec{scheme: s, img: img, reps: 3, workers: 2, budget: 2048, seed: 99}
		rep, want, err := runCampaign(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAttackReport(rep, s); err != nil {
			t.Fatal(err)
		}
		tr := NewTracer()
		out := newRunOutcome(c.workers)
		_, got, err := tracedCampaign(ctx, tr, tr.Begin("round", -1), c, out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: traced report\n%s\ndiffers from Machine.Campaign's\n%s", s, got, want)
		}
		if lt := layerTotals(tr.Spans()); lt["kernel.boot"].Count != c.reps || out.reqCalls != rep.OracleCalls {
			t.Fatalf("%s: %d boots, %d requests; want %d boots, %d requests", s,
				lt["kernel.boot"].Count, out.reqCalls, c.reps, rep.OracleCalls)
		}
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark runs %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
