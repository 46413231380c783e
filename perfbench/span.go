package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans form a tree through Parent;
// a root has Parent -1. Times are nanoseconds since the tracer's epoch.
//
// Leaves and LeafNs aggregate calls too frequent to keep one span each
// (kernel requests, fuzz executions): they ran inside the span, one after
// another, and overlap neither each other nor the span's child spans.
type Span struct {
	Name   string
	Parent int
	Start  int64
	End    int64
	Leaves int
	LeafNs int64
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps a run's spans in memory; they are folded into per-layer
// metrics when the run ends. It is safe for concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now reads the tracer's clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span under parent (-1 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// End closes span id now.
func (t *Tracer) End(id int) { t.EndAt(id, t.Now()) }

// EndAt closes span id at an explicit time on the tracer's clock, for a
// span whose end is only known afterwards (a fuzz shard ends at its last
// execution).
func (t *Tracer) EndAt(id int, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at
}

// AddLeaves folds n leaf calls totalling ns into span id.
func (t *Tracer) AddLeaves(id, n int, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Leaves += n
	t.spans[id].LeafNs += ns
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans and leaves. Children that run in
// parallel (campaign replications on several workers) cover their union
// once, not their sum.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := unionWithin(spans, children[i], s.Start, s.End) + s.LeafNs
		self[i] = s.Dur() - covered
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// unionWithin measures the union of the listed spans' intervals, clipped
// to [lo, hi].
func unionWithin(spans []Span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s, e := max(spans[id].Start, lo), min(spans[id].End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// layerTotal is one span name's span count, wall time, self time and
// leaf calls.
type layerTotal struct {
	Count          int
	WallNs, SelfNs int64
	Leaves         int
	LeafNs         int64
}

// layerTotals sums the spans per name.
func layerTotals(spans []Span) map[string]*layerTotal {
	self := SelfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.WallNs += s.Dur()
		lt.SelfNs += self[i]
		lt.Leaves += s.Leaves
		lt.LeafNs += s.LeafNs
	}
	return out
}
