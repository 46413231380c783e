// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public API for a fixed wall-clock time, checks every
// report against a known answer, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones, taken from spans the benchmark records around its own
// calls into each layer. See README.md for the workloads and metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload attack|fuzz|daemon-mix --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/pssp"
)

const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median.
	setupRuns = 21
	// minJobs is the fewest jobs a run measures, past its deadline if
	// need be, so medians and tails always rest on enough samples.
	minJobs = 30
	// digestJobs is how many leading jobs the run digest covers: jobs are
	// numbered from the seed, so the same seed gives the same digest.
	digestJobs = 8
	// rssEvery is the resident-set sampling period.
	rssEvery = 50 * time.Millisecond
	// sliceLen is the throughput sampling period of a run whose jobs
	// overlap (daemon-mix), where per-job rates do not add up.
	sliceLen = 500 * time.Millisecond
)

type metricDef struct{ name, unit string }

// endToEnd are the gated end-to-end metrics, reported on every workload.
// They are CPU-time and memory figures: on a shared host the wall-clock
// figures (throughput, job latency, peak RSS) move with the neighbours,
// so they are printed for reading, not gated.
var endToEnd = []metricDef{
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer the workload never calls
// reads 0 on it.
var perLayer = []metricDef{
	{"cc.compile_ms", "ms"},
	{"kernel.boot_calls", "count"},
	{"kernel.boot_us", "us"},
	{"kernel.request_calls", "count"},
	{"kernel.request_us", "us"},
	{"vm.guest_insts_per_op", "count"},
	{"vm.host_ns_per_guest_inst", "ns"},
	{"mem.victim_footprint_kb", "KB"},
	{"attack.strategy_self_us_per_trial", "us"},
	{"campaign.worker_idle_frac", "ratio"},
	{"campaign.merge_us", "us"},
	{"fuzz.exec_us", "us"},
	{"fuzz.self_us_per_exec", "us"},
	{"fuzz.extra_exec_ratio", "ratio"},
	{"fuzz.merge_us", "us"},
	{"daemon.boot_job_us_p50", "us"},
	{"daemon.attack_job_us_p50", "us"},
	{"daemon.attack_job_us_p99", "us"},
	{"daemon.pool_hit_ratio", "ratio"},
	{"daemon.rejected", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.sched_latency_p99_us", "us"},
}

// runner is a set-up workload.
type runner interface {
	run(ctx context.Context, p runParams) (*runOutcome, error)
	close()
}

type workloadDef struct {
	name  string
	op    string // what one op is: trials, execs or jobs
	setup func(ctx context.Context, seed uint64) (runner, time.Duration, error)
}

var workloads = []workloadDef{
	{"attack", "trials", setupAttack},
	{"fuzz", "execs", setupFuzz},
	{"daemon-mix", "jobs", setupDaemonMix},
}

type runParams struct {
	seed    uint64
	seconds time.Duration
	minJobs int
	tr      *Tracer // nil for the untraced run
}

// jobSeed derives job i's seed from the workload seed. Seeds are never 0:
// the daemon reads 0 as "pick one for me".
func jobSeed(seed, i uint64) uint64 {
	if s := rng.Mix(seed, i); s != 0 {
		return s
	}
	return 1
}

// runOutcome is what one measured run observed. Methods that tally are
// safe for concurrent use.
type runOutcome struct {
	ops     opCount
	workers int       // the parallel engine's worker count
	latUs   []float64 // per job
	rates   []float64 // ops/s per job, or per slice of a concurrent run
	cpuOp   []float64 // process CPU µs per op, per job or slice
	window  time.Duration
	rt0     rtSample
	rt      rtDelta
	start   time.Time
	rss     *rssSampler
	peak    uint64 // peak RSS at the end of the window

	mu                     sync.Mutex
	jobDigests             map[int][]byte
	failures               []string
	reqCalls               int
	reqNs                  int64
	insts                  uint64
	footprint              int
	extraExecs             int
	unminimal              int // fuzz runs whose finding was minimized past 17 bytes
	rejected               int
	poolHitRatio           float64
	bootLatUs, attackLatUs []float64
}

func newRunOutcome(workers int) *runOutcome {
	return &runOutcome{workers: workers, jobDigests: make(map[int][]byte)}
}

func (o *runOutcome) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failures = append(o.failures, err.Error())
}

func (o *runOutcome) request(calls int, ns int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.reqCalls += calls
	o.reqNs += ns
}

// victim folds in guest instructions executed and a victim footprint.
func (o *runOutcome) victim(insts uint64, footprint int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.insts += insts
	o.footprint = max(o.footprint, footprint)
}

// digest records job i's report digest, for the first digestJobs jobs.
func (o *runOutcome) digest(i int, parts ...[]byte) {
	if i >= digestJobs {
		return
	}
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.jobDigests[i] = h.Sum(nil)
}

// runDigest folds the leading jobs' digests in job order.
func (o *runOutcome) runDigest() string {
	h := sha256.New()
	for i := 0; i < digestJobs; i++ {
		h.Write(o.jobDigests[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (o *runOutcome) startWindow(p runParams) {
	if p.tr != nil {
		o.rt0 = readRuntime()
	}
	o.rss = startRSSSampler(rssEvery)
	o.start = time.Now()
}

// endWindow closes the measured window: runtime counters and memory are
// read before any post-window verification runs.
func (o *runOutcome) endWindow(p runParams) error {
	o.window = time.Since(o.start)
	if p.tr != nil {
		o.rt = runtimeDelta(o.rt0, readRuntime())
	}
	var err error
	o.peak, err = peakRSSBytes()
	return errors.Join(err, o.rss.stop())
}

// loop runs sequential jobs until the deadline has passed and at least
// p.minJobs have run, timing each.
func (o *runOutcome) loop(p runParams, job func(i int) error) error {
	o.startWindow(p)
	deadline := o.start.Add(p.seconds)
	for i := 0; i < p.minJobs || time.Now().Before(deadline); i++ {
		t0, cpu0, ops := time.Now(), processCPU(), o.ops.Attempted
		if err := job(i); err != nil {
			return errors.Join(err, o.rss.stop())
		}
		d, n := time.Since(t0), float64(o.ops.Attempted-ops)
		o.latUs = append(o.latUs, float64(d)/1e3)
		if n > 0 {
			o.rates = append(o.rates, n/d.Seconds())
			o.cpuOp = append(o.cpuOp, float64(processCPU()-cpu0)/1e3/n)
		}
	}
	return o.endWindow(p)
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: attack, fuzz or daemon-mix")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured wall-clock seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload attack|fuzz|daemon-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx := context.Background()
	prov := readProvenance()

	var (
		r                            runner
		setupCPU, setupWall, compile []float64
	)
	for i := 0; i < setupRuns; i++ {
		t0, cpu0 := time.Now(), processCPU()
		rr, c, err := wl.setup(ctx, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", wl.name, err)
			return 1
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - cpu0).Seconds())
		compile = append(compile, float64(c)/1e6)
		if i < setupRuns-1 {
			rr.close()
		} else {
			r = rr
		}
	}

	p := runParams{seed: *seed, seconds: time.Duration(*seconds) * time.Second, minJobs: minJobs}
	if *trace == 1 {
		p.tr = NewTracer()
	}
	steal0 := stealTicks()
	out, err := r.run(ctx, p)
	prov.StealTicks = stealTicks() - steal0
	r.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Printf("provenance nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s steal_ticks=%d\n",
		prov.NProc, prov.GOMAXPROCS, prov.CPU, prov.GoVersion, prov.Commit, prov.StealTicks)
	fmt.Printf("%s_per_s = %.6g 1/s (%d %s in %.3f s; median of %d samples %.6g 1/s)\n",
		wl.op, float64(out.ops.Attempted)/out.window.Seconds(), out.ops.Attempted, wl.op,
		out.window.Seconds(), len(out.rates), Median(out.rates).Value)
	fmt.Printf("error_rate = %g (%d of %d %s failed)\n", out.ops.Rate(), out.ops.Failed, out.ops.Attempted, wl.op)
	fmt.Printf("digest = %s (first %d jobs)\n", out.runDigest(), digestJobs)
	if wl.name == "fuzz" {
		fmt.Printf("fuzz runs whose canary finding was minimized past %d bytes: %d of %d\n",
			pssp.VulnServerBufSize+1, out.unminimal, len(out.latUs))
	}
	for _, f := range out.failures {
		fmt.Printf("FAIL %s\n", f)
	}

	cpu := QuantileOf(out.cpuOp, 0.25)
	rss := QuantileOf(out.rss.samples, 0.1)
	setup := Median(setupCPU)
	fmt.Printf("cpu_us_per_op = %.6g us (p25 of %d samples of process CPU time per op)\n", cpu.Value, cpu.N)
	fmt.Printf("rss_mb = %.6g MB (p10 of %d resident-set samples, one per %v)\n", rss.Value/1e6, rss.N, rssEvery)
	fmt.Printf("setup_s = %.6g s (median process CPU time of %d set-ups; median wall time %.6g s)\n",
		setup.Value, setup.N, Median(setupWall).Value)
	fmt.Printf("peak_rss_mb = %.6g MB\n", float64(out.peak)/1e6)
	med := Median(out.latUs)
	fmt.Printf("job_p50_us = %.6g us (n=%d)\n", med.Value, med.N)
	if tail, ok := Tail(out.latUs); ok {
		fmt.Printf("job_p%s_us = %.6g us (n=%d, %d beyond)\n", pctName(tail.P), tail.Value, tail.N, tail.Beyond)
	}

	metrics := map[string]float64{
		"cpu_us_per_op": cpu.Value,
		"rss_mb":        rss.Value / 1e6,
		"setup_s":       setup.Value,
	}
	if p.tr != nil {
		layerMetrics(metrics, out, p.tr.Spans(), Median(compile).Value)
		for _, u := range unattributed(p.tr.Spans()) {
			fmt.Printf("root span %s: %d spans, %.1f%% of wall time unattributed to child spans\n", u.name, u.count, 100*u.frac)
		}
		for _, m := range perLayer {
			fmt.Printf("%s = %.6g %s\n", m.name, metrics[m.name], m.unit)
		}
	}

	defs := endToEnd
	if p.tr != nil {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   out.ops.Failed == 0 && len(out.failures) == 0,
		Attempted: out.ops.Attempted,
		Failed:    out.ops.Failed,
		Metrics:   make(map[string]value),
	}
	for _, m := range defs {
		res.Metrics[m.name] = value{metrics[m.name], m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// pctName renders a percentile fraction for a metric label: 0.99 → "99",
// 0.8889 → "88.9".
func pctName(p float64) string {
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", 100*p), "0"), ".")
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]float64, out *runOutcome, spans []Span, compileMs float64) {
	lt := layerTotals(spans)
	get := func(name string) layerTotal {
		if t := lt[name]; t != nil {
			return *t
		}
		return layerTotal{}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := float64(out.ops.Attempted)

	m["cc.compile_ms"] = compileMs
	boot := get("kernel.boot")
	m["kernel.boot_calls"] = float64(boot.Count)
	m["kernel.boot_us"] = div(float64(boot.WallNs)/1e3, float64(boot.Count))
	m["kernel.request_calls"] = float64(out.reqCalls)
	m["kernel.request_us"] = div(float64(out.reqNs)/1e3, float64(out.reqCalls))
	m["vm.guest_insts_per_op"] = div(float64(out.insts), float64(out.reqCalls))
	m["vm.host_ns_per_guest_inst"] = div(float64(out.reqNs), float64(out.insts))
	m["mem.victim_footprint_kb"] = float64(out.footprint) / 1024

	strat := get("attack.strategy")
	m["attack.strategy_self_us_per_trial"] = div(float64(strat.SelfNs)/1e3, float64(strat.Leaves))
	idle, merge := campaignShape(spans, "campaign.run", "campaign.replication", out.workers)
	m["campaign.worker_idle_frac"] = idle
	m["campaign.merge_us"] = merge

	shard := get("fuzz.shard")
	m["fuzz.exec_us"] = div(float64(shard.LeafNs)/1e3, float64(shard.Leaves))
	m["fuzz.self_us_per_exec"] = div(float64(shard.SelfNs)/1e3, float64(shard.Leaves))
	m["fuzz.extra_exec_ratio"] = div(float64(out.extraExecs), ops)
	_, m["fuzz.merge_us"] = campaignShape(spans, "fuzz.run", "fuzz.shard", out.workers)

	m["daemon.boot_job_us_p50"] = Median(out.bootLatUs).Value
	m["daemon.attack_job_us_p50"] = Median(out.attackLatUs).Value
	if t, ok := Tail(out.attackLatUs); ok {
		m["daemon.attack_job_us_p99"] = t.Value
		fmt.Printf("daemon jobs: n=%d boot, n=%d attack; daemon.attack_job_us_p99 is their p%s\n",
			len(out.bootLatUs), t.N, pctName(t.P))
	}
	m["daemon.pool_hit_ratio"] = out.poolHitRatio
	m["daemon.rejected"] = float64(out.rejected)

	m["runtime.alloc_bytes_per_op"] = div(float64(out.rt.AllocBytes), ops)
	m["runtime.allocs_per_op"] = div(float64(out.rt.AllocObjs), ops)
	m["runtime.gc_cpu_frac"] = out.rt.GCCPUFrac
	m["runtime.gc_cycles"] = float64(out.rt.GCCycles)
	m["runtime.sched_latency_p99_us"] = out.rt.SchedP99Us
}

// campaignShape measures a parallel engine's spans: the fraction of worker
// capacity its children left idle, and the mean merge time from the last
// child's end to the parent's end.
func campaignShape(spans []Span, parentName, childName string, workers int) (idleFrac, mergeUs float64) {
	type acc struct {
		busy, lastEnd int64
		n             int
	}
	kids := make(map[int]*acc)
	for _, s := range spans {
		if s.Name == childName && s.Parent >= 0 {
			a := kids[s.Parent]
			if a == nil {
				a = &acc{}
				kids[s.Parent] = a
			}
			a.busy += s.Dur()
			a.lastEnd = max(a.lastEnd, s.End)
			a.n++
		}
	}
	var busy, capacity, merge int64
	parents := 0
	for i, s := range spans {
		a := kids[i]
		if s.Name != parentName || a == nil {
			continue
		}
		parents++
		busy += a.busy
		capacity += int64(min(workers, a.n)) * s.Dur()
		merge += s.End - a.lastEnd
	}
	if parents == 0 || capacity == 0 {
		return 0, 0
	}
	return 1 - float64(busy)/float64(capacity), float64(merge) / float64(parents) / 1e3
}

type rootShare struct {
	name  string
	count int
	frac  float64
}

// unattributed reports, per root span name, the share of root wall time
// that no child span or leaf covers.
func unattributed(spans []Span) []rootShare {
	self := SelfTimes(spans)
	agg := make(map[string]*[3]int64)
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = new([3]int64)
			agg[s.Name] = a
		}
		a[0]++
		a[1] += s.Dur()
		a[2] += self[i]
	}
	var out []rootShare
	for n, a := range agg {
		frac := 0.0
		if a[1] > 0 {
			frac = float64(a[2]) / float64(a[1])
		}
		out = append(out, rootShare{n, int(a[0]), frac})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
