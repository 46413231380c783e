package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rtSample is a reading of the Go runtime's own counters, taken at the
// edges of a run's measured window.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
	sched                           *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		sched:      s[5].Value.Float64Histogram(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	AllocBytes, AllocObjs, GCCycles uint64
	GCCPUFrac                       float64
	SchedP99Us                      float64
}

func runtimeDelta(a, b rtSample) rtDelta {
	d := rtDelta{
		AllocBytes: b.allocBytes - a.allocBytes,
		AllocObjs:  b.allocObjs - a.allocObjs,
		GCCycles:   b.gcCycles - a.gcCycles,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.GCCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	d.SchedP99Us = histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6
	return d
}

// histDeltaQuantile is the q-quantile of the samples recorded between two
// readings of one cumulative runtime histogram, read as the upper bound of
// the bucket it falls in (the lower bound for the open last bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q*float64(total-1)) + 1
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			hi := b.Buckets[i+1]
			if hi > 1e300 {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// rssSampler samples the process's resident set until stopped.
type rssSampler struct {
	samples []float64 // bytes
	err     error
	quit    chan struct{}
	done    chan struct{}
}

func startRSSSampler(every time.Duration) *rssSampler {
	r := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-r.quit:
				return
			case <-t.C:
				b, err := rssBytes()
				if err != nil {
					r.err = err
					return
				}
				r.samples = append(r.samples, float64(b))
			}
		}
	}()
	return r
}

// stop ends sampling; samples are safe to read once it returns.
func (r *rssSampler) stop() error {
	close(r.quit)
	<-r.done
	if r.err == nil && len(r.samples) == 0 {
		b, err := rssBytes()
		r.samples, r.err = append(r.samples, float64(b)), err
	}
	return r.err
}

// rssBytes reads the current resident set from /proc/self/statm.
func rssBytes() (uint64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	return pages * uint64(os.Getpagesize()), err
}

// processCPU is the process's user plus system CPU time so far. It does
// not include time the hypervisor stole from the host's vCPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
