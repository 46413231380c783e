package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so the tail is never decided by a handful of outliers.
const minBeyond = 10

// maxTail caps the reported tail percentile: past p99 a run of this length
// measures scheduler hiccups on the host, not the system.
const maxTail = 0.99

// Quantile is one order statistic of a sample set, with the evidence
// behind it.
type Quantile struct {
	P      float64 // the percentile, as a fraction
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the reported rank
}

// nearestRank returns the nearest-rank order statistic at fraction p of
// sorted (ascending) and the number of samples ranked above it.
func nearestRank(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	// The epsilon keeps p = k/n from rounding up to rank k+1.
	idx := int(math.Ceil(p*float64(n)-1e-9)) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n - 1 - idx
}

// QuantileOf is the nearest-rank percentile p (a fraction) of vals.
func QuantileOf(vals []float64, p float64) Quantile {
	s := sortedCopy(vals)
	if len(s) == 0 {
		return Quantile{P: p}
	}
	v, beyond := nearestRank(s, p)
	return Quantile{P: p, Value: v, N: len(s), Beyond: beyond}
}

// Median is the nearest-rank 50th percentile of vals.
func Median(vals []float64) Quantile { return QuantileOf(vals, 0.5) }

// Tail is the highest percentile with at least minBeyond samples beyond
// it, capped at maxTail. ok is false when the set is too small for any
// percentile at or above the median to qualify.
func Tail(vals []float64) (q Quantile, ok bool) {
	n := len(vals)
	if n == 0 {
		return Quantile{}, false
	}
	p := math.Min(maxTail, float64(n-minBeyond)/float64(n))
	if p < 0.5 {
		return Quantile{N: n}, false
	}
	q = QuantileOf(vals, p)
	return q, q.Beyond >= minBeyond
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// opCount tallies a run's operations for error_rate: every attempted op,
// and the ops of jobs that errored, were rejected, or failed a check — a
// job that fails counts all of its ops as failed.
type opCount struct {
	Attempted, Failed int
}

// job records one job's ops; failed marks the whole job failed.
func (c *opCount) job(ops int, failed bool) {
	c.Attempted += ops
	if failed {
		c.Failed += ops
	}
}

// failAll marks every op failed: a run whose reports fail a check
// (determinism, trace identity) has no trustworthy op.
func (c *opCount) failAll() { c.Failed = c.Attempted }

// Rate is failed ÷ attempted (0 when nothing was attempted).
func (c opCount) Rate() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Failed) / float64(c.Attempted)
}
