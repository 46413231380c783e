package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

// The daemon-mix workload is an in-process psspd on a real unix socket,
// driven by a closed loop of nproc client connections that each block on
// the reply. Jobs cycle daemonBootJobs warm boot jobs to one short P-SSP
// attack job on a fresh seed.
const (
	daemonApp      = "nginx-vuln"
	daemonScheme   = "p-ssp"
	daemonBootJobs = 3 // warm boot jobs per attack job
	daemonReps     = 8
	daemonBudget   = 16
	daemonWorkers  = 1 // campaign workers per attack job: load stays at nproc connections
	// sockDir holds the daemon's socket, inside the checkout the benchmark
	// runs in. The path is relative: unix socket paths are length-limited.
	sockDir = ".bench_build"
)

type daemonBench struct {
	d       *daemon.Daemon
	served  chan error
	sock    string
	clients []*client.Client
	img     *pssp.Image // the attack jobs' image, for the in-process reference
	// bootSeeds[k] is connection k's warm pool key; footprint is the
	// parked parent's size every boot job must report.
	bootSeeds []uint64
	footprint int
}

func setupDaemonMix(ctx context.Context, seed uint64) (runner, time.Duration, error) {
	scheme, err := pssp.ParseScheme(daemonScheme)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	img, err := pssp.NewMachine(pssp.WithScheme(scheme)).CompileApp(daemonApp)
	compile := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	b := &daemonBench{img: img, served: make(chan error, 1)}
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return nil, 0, err
	}
	b.sock = filepath.Join(sockDir, fmt.Sprintf("perfbench-%d.sock", os.Getpid()))
	os.Remove(b.sock) // a stale socket from a killed run
	lis, err := net.Listen("unix", b.sock)
	if err != nil {
		return nil, 0, err
	}
	b.d = daemon.New(daemon.Config{})
	go func() { b.served <- b.d.Serve(lis) }()
	if err := b.warm(ctx, seed); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, compile, nil
}

// warm connects the clients, fills the daemon's image cache and parks
// one warm machine per connection.
func (b *daemonBench) warm(ctx context.Context, seed uint64) error {
	for k := 0; k < runtime.NumCPU(); k++ {
		c, err := client.Dial("unix:" + b.sock)
		if err != nil {
			return err
		}
		b.clients = append(b.clients, c)
	}
	if err := b.clients[0].Call(ctx, "compile", daemon.CompileParams{App: daemonApp, Scheme: daemonScheme}, nil); err != nil {
		return err
	}
	for k, c := range b.clients {
		s := jobSeed(seed, 1<<32+uint64(k))
		var res daemon.BootResult
		if err := c.Call(ctx, "boot", b.bootParams(s), &res); err != nil {
			return err
		}
		if k == 0 {
			m := pssp.NewMachine(pssp.WithSeed(s))
			srv, err := m.Serve(ctx, b.img)
			if err != nil {
				return err
			}
			b.footprint = srv.Footprint()
			m.Close()
		}
		if err := b.checkBoot(res, s); err != nil {
			return err
		}
		b.bootSeeds = append(b.bootSeeds, s)
	}
	return nil
}

func (b *daemonBench) bootParams(seed uint64) daemon.BootParams {
	return daemon.BootParams{App: daemonApp, Scheme: daemonScheme, Seed: seed}
}

func (b *daemonBench) attackParams(seed uint64) daemon.AttackParams {
	return daemon.AttackParams{
		Target: daemonApp, Scheme: daemonScheme, Strategy: attackStrategy,
		Budget: daemonBudget, Repeats: daemonReps, Workers: daemonWorkers, Seed: seed,
	}
}

// checkBoot holds a boot job's result to what was asked for and to the
// footprint an in-process boot of the same image reports.
func (b *daemonBench) checkBoot(res daemon.BootResult, seed uint64) error {
	if res.App != daemonApp || res.Scheme != daemonScheme || res.Seed != seed || res.FootprintBytes != b.footprint {
		return fmt.Errorf("boot job seed %d: got %+v, want %s/%s footprint %d",
			seed, res, daemonApp, daemonScheme, b.footprint)
	}
	return nil
}

func (b *daemonBench) close() {
	for _, c := range b.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.d.Shutdown(ctx)
	<-b.served
	os.Remove(b.sock)
}

// daemonJob is one job of the mix as the client saw it.
type daemonJob struct {
	idx    int
	attack bool
	seed   uint64
	lat    time.Duration
	end    time.Duration     // since the window opened
	cpu    time.Duration     // process CPU time at the job's end
	sum    [sha256.Size]byte // of the attack report bytes off the wire, or of the checked boot result
	err    error
}

// isRejection reports a daemon admission refusal.
func isRejection(err error) bool {
	return errors.Is(err, client.ErrBusy) || errors.Is(err, client.ErrQuota) || errors.Is(err, client.ErrShutdown)
}

func (b *daemonBench) run(ctx context.Context, p runParams) (*runOutcome, error) {
	out := newRunOutcome(daemonWorkers)
	before, err := b.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		jobs []daemonJob
		wg   sync.WaitGroup
	)
	out.startWindow(p)
	deadline := time.Now().Add(p.seconds)
	for k, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.minJobs && !time.Now().Before(deadline) {
					return
				}
				j := b.do(ctx, p.tr, c, k, i, p.seed)
				j.end, j.cpu = time.Since(out.start), processCPU()
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := out.endWindow(p); err != nil {
		return nil, err
	}
	after, err := b.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	sort.Slice(jobs, func(a, c int) bool { return jobs[a].idx < jobs[c].idx })
	// Throughput per whole slice of the window: jobs overlap, so per-job
	// rates would not add up to what the daemon delivers.
	slices := make([]float64, int(out.window/sliceLen))
	sliceCPU := make([]time.Duration, len(slices)) // latest CPU reading in each slice
	for _, j := range jobs {
		if k := int(j.end / sliceLen); k < len(slices) {
			slices[k]++
			sliceCPU[k] = max(sliceCPU[k], j.cpu)
		}
	}
	for k, n := range slices {
		out.rates = append(out.rates, n/sliceLen.Seconds())
		if k > 0 && n > 0 && sliceCPU[k-1] > 0 {
			out.cpuOp = append(out.cpuOp, float64(sliceCPU[k]-sliceCPU[k-1])/1e3/n)
		}
	}

	var attacks []daemonJob
	for _, j := range jobs {
		out.latUs = append(out.latUs, float64(j.lat)/1e3)
		failed := j.err != nil
		if failed {
			if isRejection(j.err) {
				out.rejected++
			}
			out.fail(fmt.Errorf("job %d: %w", j.idx, j.err))
		}
		out.ops.job(1, failed)
		out.digest(j.idx, j.sum[:])
		if j.attack {
			out.attackLatUs = append(out.attackLatUs, float64(j.lat)/1e3)
			if !failed {
				attacks = append(attacks, j)
			}
		} else {
			out.bootLatUs = append(out.bootLatUs, float64(j.lat)/1e3)
		}
	}
	hits, misses := after.Pool.Hits-before.Pool.Hits, after.Pool.Misses-before.Pool.Misses
	if hits+misses > 0 {
		out.poolHitRatio = float64(hits) / float64(hits+misses)
	}
	out.footprint = b.footprint
	return out, b.verify(ctx, p, attacks, out)
}

// do runs job i on connection k. Its kind and seed depend on i alone, so
// the job stream is the same whichever connection takes which job.
func (b *daemonBench) do(ctx context.Context, tr *Tracer, c *client.Client, k, i int, seed uint64) daemonJob {
	j := daemonJob{idx: i, attack: i%(daemonBootJobs+1) == daemonBootJobs}
	name := "daemon.boot_job"
	if j.attack {
		name = "daemon.attack_job"
	}
	sp := -1
	if tr != nil {
		sp = tr.Begin(name, -1)
	}
	t0 := time.Now()
	if j.attack {
		j.seed = jobSeed(seed, uint64(i))
		var raw json.RawMessage
		j.err = c.Call(ctx, "attack", b.attackParams(j.seed), &raw)
		j.sum = sha256.Sum256(raw)
	} else {
		j.seed = b.bootSeeds[k]
		var res daemon.BootResult
		if j.err = c.Call(ctx, "boot", b.bootParams(j.seed), &res); j.err == nil {
			j.err = b.checkBoot(res, j.seed)
			// The seed names the connection's pool entry, not the job, so
			// it stays out of the job's digest.
			j.sum = sha256.Sum256(fmt.Appendf(nil, "%s/%s/%d", res.App, res.Scheme, res.FootprintBytes))
		}
	}
	j.lat = time.Since(t0)
	if tr != nil {
		tr.End(sp)
	}
	return j
}

// verify holds every remote attack report to the known answer (P-SSP
// resists) and to the in-process Machine.Campaign for the same params,
// byte for byte. A traced run rebuilds that reference campaign with
// spans, which also gives the kernel and campaign layers of the mix.
func (b *daemonBench) verify(ctx context.Context, p runParams, attacks []daemonJob, out *runOutcome) error {
	scheme, err := pssp.ParseScheme(daemonScheme)
	if err != nil {
		return err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(attacks) {
					return
				}
				j := attacks[n]
				c := campaignSpec{scheme: scheme, img: b.img, reps: daemonReps, workers: daemonWorkers, budget: daemonBudget, seed: j.seed}
				root := -1
				if p.tr != nil {
					root = p.tr.Begin("reference.attack_job", -1)
				}
				rep, want, err := campaignReport(ctx, p.tr, root, c, out)
				if p.tr != nil {
					p.tr.End(root)
				}
				mu.Lock()
				switch {
				case err != nil:
					ferr = errors.Join(ferr, err)
				case sha256.Sum256(want) != j.sum:
					out.fail(fmt.Errorf("job %d: remote attack report differs from Machine.Campaign's", j.idx))
					out.ops.failAll()
				default:
					if err := checkAttackReport(rep, scheme); err != nil {
						out.fail(fmt.Errorf("job %d: %w", j.idx, err))
						out.ops.failAll()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ferr
}
