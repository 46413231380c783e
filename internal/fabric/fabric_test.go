package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/pssp"
)

// startWorker boots a psspd on a unix socket and returns its address.
func startWorker(t *testing.T, seed uint64) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "w.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	d := daemon.New(daemon.Config{Seed: seed, MaxJobs: 4, MaxQueue: 16, PoolSize: 8})
	go d.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return "unix:" + sock
}

// coordinator builds a Coordinator attached to n fresh workers.
func coordinator(t *testing.T, n int, cfg Config) *Coordinator {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		if err := c.Connect(startWorker(t, 99)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localCampaign runs the reference single-process campaign.
func localCampaign(t *testing.T, p daemon.AttackParams) daemon.AttackReport {
	t.Helper()
	s, err := pssp.ParseScheme(p.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	m := pssp.NewMachine(pssp.WithSeed(p.Seed), pssp.WithScheme(s))
	img, err := m.Pipeline().CompileApp(p.Target).Image()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Campaign(context.Background(), img, pssp.CampaignConfig{
		Strategy:     p.Strategy,
		Replications: p.Repeats,
		Seed:         p.Seed,
		Attack:       pssp.AttackConfig{MaxTrials: p.Budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	return daemon.BuildAttackReport(p.Target, s, p.Seed, p.Budget, p.Repeats, p.Workers, res)
}

func TestCampaignMatchesLocalAcrossWorkers(t *testing.T) {
	p := daemon.AttackParams{
		Target: "nginx-vuln", Scheme: "ssp", Budget: 256, Repeats: 8, Seed: 7,
	}
	want := asJSON(t, localCampaign(t, p))
	for _, workers := range []int{1, 2} {
		c := coordinator(t, workers, Config{LeaseShards: 2})
		got, err := typed[daemon.AttackReport](context.Background(), c, SubmitParams{Kind: "campaign", Attack: &p})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if g := asJSON(t, got); g != want {
			t.Errorf("%d-worker fabric report differs from local run:\n got %s\nwant %s", workers, g, want)
		}
		st := c.Stats()
		if st.LeasesIssued == 0 {
			t.Errorf("%d workers: no leases recorded in stats", workers)
		}
	}
}

func TestCampaignSurvivesWorkerKilledMidLease(t *testing.T) {
	p := daemon.AttackParams{
		Target: "nginx-vuln", Scheme: "ssp", Budget: 2048, Repeats: 16, Seed: 7,
	}
	want := asJSON(t, localCampaign(t, p))
	c := coordinator(t, 2, Config{LeaseShards: 1})
	victim := c.workers[0].name
	// Kill one worker while the job is demonstrably in flight (first leases
	// issued, many still pending); its work must be re-issued to the
	// survivor and the merged report stay identical.
	go func() {
		for c.Stats().LeasesIssued < 2 {
			time.Sleep(time.Millisecond)
		}
		c.KillWorker(victim)
	}()
	got, err := typed[daemon.AttackReport](context.Background(), c, SubmitParams{Kind: "campaign", Attack: &p})
	if err != nil {
		t.Fatal(err)
	}
	if g := asJSON(t, got); g != want {
		t.Errorf("report after worker kill differs from local run:\n got %s\nwant %s", g, want)
	}
	st := c.Stats()
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("want exactly 1 surviving worker, got %d (stats %+v)", alive, st.Workers)
	}
}

func TestLoadTestAndSweepMatchLocal(t *testing.T) {
	p := daemon.LoadParams{
		App: "nginx", Scheme: "p-ssp", Requests: 96, Shards: 6, Seed: 7,
	}
	// Reference run: the exact path psspload takes locally, via the shared
	// params mapping.
	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP))
	img, err := m.Pipeline().CompileApp("nginx").Image()
	if err != nil {
		t.Fatal(err)
	}
	np := daemon.NormalizeLoadParams(p)
	cfg, err := daemon.LoadWorkload(np, np.App, np.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := m.LoadTest(context.Background(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := m.LoadSweep(context.Background(), img, cfg, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}

	c := coordinator(t, 2, Config{})
	got, err := typed[*pssp.LoadReport](context.Background(), c, SubmitParams{Kind: "loadtest", Load: &p})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := asJSON(t, got), asJSON(t, wantRep); g != w {
		t.Errorf("fabric load report differs from local run:\n got %s\nwant %s", g, w)
	}
	ps := p
	ps.Sweep = []float64{0.5, 1}
	gotSweep, err := typed[*pssp.LoadSweepReport](context.Background(), c, SubmitParams{Kind: "loadtest", Load: &ps})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := asJSON(t, gotSweep), asJSON(t, wantSweep); g != w {
		t.Errorf("fabric sweep report differs from local run:\n got %s\nwant %s", g, w)
	}
}

func TestFuzzMatchesLocalAndSyncsCorpus(t *testing.T) {
	p := daemon.FuzzParams{
		App: "nginx-vuln", Scheme: "ssp", Execs: 192, Shards: 6, Seed: 7,
	}
	m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemeSSP))
	img, err := m.Pipeline().CompileApp("nginx-vuln").Image()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Fuzz(context.Background(), img, pssp.FuzzConfig{
		Execs: 192, Shards: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	c := coordinator(t, 2, Config{})
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	res, err := typed[daemon.FuzzResult](context.Background(), c, SubmitParams{Kind: "fuzz", Fuzz: &p, CorpusDir: corpusDir})
	if err != nil {
		t.Fatal(err)
	}
	got := res.FuzzReport
	if g, w := asJSON(t, got), asJSON(t, want); g != w {
		t.Errorf("fabric fuzz report differs from local run:\n got %s\nwant %s", g, w)
	}
	if got.CorpusSize == 0 {
		t.Fatal("fuzz run admitted no corpus entries; corpus sync untestable")
	}
	if st := c.Stats(); st.FrontierEdges != got.Edges {
		t.Errorf("stats frontier %d, report edges %d", st.FrontierEdges, got.Edges)
	}

	// The shared corpus must now hold the run's discoveries: a continuous
	// round resuming from it stalls immediately once coverage is saturated.
	res, err = typed[daemon.FuzzResult](context.Background(), c, SubmitParams{Kind: "fuzz", Fuzz: &p, CorpusDir: corpusDir, UntilStall: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, sum := res.FuzzReport, res.UntilStall
	if sum.Rounds < 2 {
		t.Errorf("until-stall ran %d rounds, want >= 2", sum.Rounds)
	}
	if rep.Edges < got.Edges {
		t.Errorf("continuous frontier %d edges shrank below one-shot %d", rep.Edges, got.Edges)
	}
}

func TestFatalWorkerErrorFailsJob(t *testing.T) {
	c := coordinator(t, 1, Config{})
	// Unknown app: plan resolution happens worker-side at image compile and
	// reports internal — fatal, not a reassignment loop.
	_, err := typed[daemon.FuzzResult](context.Background(), c, SubmitParams{Kind: "fuzz", Fuzz: &daemon.FuzzParams{App: "no-such-app", Seed: 3}})
	if err == nil {
		t.Fatal("want fatal job error for unknown app")
	}
	if st := c.Stats(); st.LeasesReassigned != 0 {
		t.Errorf("fatal error was retried: %d reassignments", st.LeasesReassigned)
	}
}

func TestWorkerJoinViaServeRegister(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "coord.sock")
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	t.Cleanup(c.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Serve(ctx, lis)

	d := daemon.New(daemon.Config{Seed: 99, MaxJobs: 4, MaxQueue: 16, PoolSize: 8})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go d.Worker(wctx, "unix:"+sock, "joiner")
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		d.Shutdown(sctx)
	})

	if err := c.WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	p := daemon.AttackParams{Target: "nginx-vuln", Scheme: "ssp", Budget: 128, Repeats: 2, Seed: 7}
	want := asJSON(t, localCampaign(t, p))
	got, err := typed[daemon.AttackReport](ctx, c, SubmitParams{Kind: "campaign", Attack: &p})
	if err != nil {
		t.Fatal(err)
	}
	if g := asJSON(t, got); g != want {
		t.Errorf("dial-in worker report differs from local run:\n got %s\nwant %s", g, want)
	}
}

// typed runs job p and returns its report as R — an error if the job's
// kind reports another shape (a single-point loadtest given sweep params,
// say).
func typed[R any](ctx context.Context, c *Coordinator, p SubmitParams) (R, error) {
	var rep R
	run, err := c.Job(p)
	if err != nil {
		return rep, err
	}
	res, err := run(ctx)
	if err != nil {
		return rep, err
	}
	rep, ok := res.(R)
	if !ok {
		return rep, fmt.Errorf("fabric: %s job reports %T, not %T", p.Kind, res, rep)
	}
	return rep, nil
}
