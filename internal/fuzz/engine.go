package fuzz

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workpool"
)

// Config sizes a fuzzing run.
type Config struct {
	// Label names the run in its Report.
	Label string
	// Seeds is the initial corpus (at least one input).
	Seeds [][]byte
	// Dict is an optional dictionary of tokens the mutation engine splices
	// into inputs.
	Dict [][]byte
	// Execs is the total mutation budget, partitioned across shards
	// (default 4096). Seed executions and minimization probes run on top of
	// it and are reported separately.
	Execs int
	// Shards is the number of self-contained fuzzing shards (default 4).
	// Part of the scenario: it fixes the budget partition and the mutation
	// streams, like a campaign's replication count.
	Shards int
	// Workers bounds how many shards run concurrently (default GOMAXPROCS,
	// clamped to Shards). Wall-clock only — never results.
	Workers int
	// Seed drives all randomness: shard i mutates from
	// rng.NewStream(Seed, i).
	Seed uint64
	// MaxInput caps generated input length in bytes (default 1024).
	MaxInput int
	// MinimizeBudget bounds the extra executions triage spends minimizing
	// each unique crash (default 96).
	MinimizeBudget int
	// BaseVirgin, when exactly vm.CovMapSize bytes, seeds every shard's
	// coverage frontier — the resume path for a persistent corpus: edges a
	// previous run already charted are not "new", so the budget goes to the
	// frontier instead of rediscovery. Part of the scenario: it changes
	// corpus admission and the report. Other lengths are ignored.
	BaseVirgin []byte
	// Progress, when non-nil, receives a running tally roughly every
	// ProgressEvery executions and at every shard completion, serialized by
	// the engine. It observes wall-clock order, so the snapshot sequence
	// varies with scheduling — only the final Report is deterministic. The
	// nil path costs one pointer check per execution.
	Progress func(Progress)
	// ProgressEvery is the number of executions between Progress calls
	// (default 256).
	ProgressEvery int
}

// Progress is a fuzzing run's running tally, cumulative over the executions
// performed so far in wall-clock order.
type Progress struct {
	// ShardsDone counts shards that finished, out of Shards.
	ShardsDone, Shards int
	// Execs counts every execution so far; Crashes the crashing subset
	// (crash-minimization probes included, so it can exceed the final
	// report's main-loop tally); Findings the unique crash sites found
	// (per shard, before cross-shard dedup).
	Execs, Crashes, Findings int
	// Edges sums each shard's newly-covered edge buckets — the coverage
	// frontier's growth signal. Shards chart frontiers independently, so
	// this running figure can exceed the final report's deduplicated count.
	Edges int
	// CorpusSize counts inputs admitted across shards so far.
	CorpusSize int
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Seeds) == 0 {
		return c, errors.New("fuzz: empty seed corpus")
	}
	for i, s := range c.Seeds {
		if len(s) == 0 {
			return c, fmt.Errorf("fuzz: empty seed input %d", i)
		}
	}
	if c.Execs <= 0 {
		c.Execs = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Shards > c.Execs {
		c.Shards = c.Execs
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.MaxInput <= 0 {
		c.MaxInput = 1024
	}
	if c.MinimizeBudget <= 0 {
		c.MinimizeBudget = 96
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 256
	}
	return c, nil
}

// progressMeter is the wall-clock observability tap behind Config.Progress.
// A nil meter (no listener) makes every method a single pointer check,
// keeping the default hot path allocation-free.
type progressMeter struct {
	mu        sync.Mutex
	fn        func(Progress)
	every     int
	sinceTick int
	prog      Progress
}

// newProgressMeter returns nil when no callback listens — the nil receiver
// IS the disabled state.
func newProgressMeter(cfg Config) *progressMeter {
	if cfg.Progress == nil {
		return nil
	}
	return &progressMeter{fn: cfg.Progress, every: cfg.ProgressEvery, prog: Progress{Shards: cfg.Shards}}
}

// exec folds one execution into the tally and fires the callback on the
// tick boundary. Minimization probes count here too — they are real victim
// executions.
func (m *progressMeter) exec(crashed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.prog.Execs++
	if crashed {
		m.prog.Crashes++
	}
	m.sinceTick++
	if m.sinceTick >= m.every {
		m.sinceTick = 0
		m.fn(m.prog)
	}
	m.mu.Unlock()
}

// advance accumulates frontier/corpus/finding growth without forcing a tick
// — the next exec boundary carries it out.
func (m *progressMeter) advance(newEdges, corpusAdd, findingAdd int) {
	if m == nil || (newEdges|corpusAdd|findingAdd) == 0 {
		return
	}
	m.mu.Lock()
	m.prog.Edges += newEdges
	m.prog.CorpusSize += corpusAdd
	m.prog.Findings += findingAdd
	m.mu.Unlock()
}

// shardDone marks one shard finished and fires the callback.
func (m *progressMeter) shardDone() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.prog.ShardsDone++
	m.sinceTick = 0
	m.fn(m.prog)
	m.mu.Unlock()
}

// bucket classifies a hit count into AFL's power-of-two bucket bit, so "ran
// this edge 3 times" and "ran it 30 times" count as different coverage but
// 30 and 31 do not.
func bucket(n byte) byte {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1
	case n == 2:
		return 2
	case n == 3:
		return 4
	case n <= 7:
		return 8
	case n <= 15:
		return 16
	case n <= 31:
		return 32
	case n <= 127:
		return 64
	default:
		return 128
	}
}

// mergeCov folds one execution's edge map into the shard's bucketed frontier
// and reports how many new bucket bits it contributed — the corpus-admission
// novelty signal. It walks only the buckets the execution touched — a
// request hits a few hundred of the map's 64 Ki buckets — so its cost
// follows the edges run, not the map size. The count and the resulting
// frontier do not depend on the walk order.
func mergeCov(virgin []byte, cov *vm.CovMap) int {
	virgin = virgin[:vm.CovMapSize] // a uint16 index needs no bounds check
	news := 0
	for _, i := range cov.Touched() {
		if b := bucket(cov.Count(i)); virgin[i]&b == 0 {
			virgin[i] |= b
			news++
		}
	}
	return news
}

// minFiller is the canonical byte minimization rewrites inputs toward —
// the attack layer's default buffer filler.
const minFiller = 'A'

// runShard fuzzes one shard to its budget. The returned partial is valid
// even on error (up to the failure).
func runShard(ctx context.Context, cfg Config, shard int, ex Executor, mt *progressMeter) (st *Partial, err error) {
	r := rng.NewStream(cfg.Seed, uint64(shard))
	mut := &mutator{r: r, dict: cfg.Dict, max: cfg.MaxInput}
	st = &Partial{Shard: shard, Virgin: make([]byte, vm.CovMapSize)}
	if len(cfg.BaseVirgin) == vm.CovMapSize {
		copy(st.Virgin, cfg.BaseVirgin)
	}
	seen := make(map[crashKey]bool)

	budget := workpool.Share(cfg.Execs, shard, cfg.Shards)
	if budget == 0 {
		return st, nil
	}

	execute := func(input []byte) (Exec, *vm.CovMap, error) {
		out, cov, err := ex.Execute(ctx, input)
		if err != nil {
			return Exec{}, nil, err
		}
		st.Execs++
		st.Cycles += out.Cycles
		st.Insts += out.Insts
		mt.exec(out.Crashed)
		return out, cov, nil
	}

	// crashesAs re-executes cand and reports whether it dies with the same
	// triage key — the minimization predicate.
	crashesAs := func(cand []byte, k crashKey) (bool, error) {
		out, _, err := execute(cand)
		if err != nil {
			return false, err
		}
		return out.Crashed && (Finding{CrashPC: out.CrashPC, Kind: out.Kind, Detected: out.Detected}).key() == k, nil
	}

	// minimize tail-trims input to the shortest form that still crashes
	// with key k, normalizes bytes to the canonical filler where the crash
	// is preserved, then tail-trims again, spending at most
	// cfg.MinimizeBudget executions.
	minimize := func(input []byte, k crashKey) ([]byte, error) {
		cur := append([]byte(nil), input...)
		left := cfg.MinimizeBudget
		// trim cuts step bytes off the tail while the crash holds, halving
		// step on each rejected cut.
		trim := func(step int) error {
			for step > 0 && left > 0 {
				if step >= len(cur) {
					step = len(cur) - 1
					if step == 0 {
						break
					}
				}
				cand := cur[:len(cur)-step]
				left--
				same, err := crashesAs(cand, k)
				if err != nil {
					return err
				}
				if same {
					cur = cand
				} else {
					step /= 2
				}
			}
			return nil
		}
		if err := trim(len(cur) / 2); err != nil {
			return cur, err
		}
		for i := 0; i < len(cur) && left > 0; i++ {
			if cur[i] == minFiller {
				continue
			}
			old := cur[i]
			cur[i] = minFiller
			left--
			same, err := crashesAs(cur, k)
			if err != nil {
				cur[i] = old
				return cur, err
			}
			if !same {
				cur[i] = old
			}
		}
		// Normalizing can revive a cut the first trim rejected: a mutated
		// byte equal to the canary byte it overwrote kept the one-shorter
		// input from crashing. Retry the tail byte by byte.
		return cur, trim(1)
	}

	// triage records a crashing execution: dedupe by key, then minimize the
	// first input that reached each unique site.
	triage := func(input []byte, out Exec) error {
		st.Crashes++
		f := Finding{
			Shard:    shard,
			Exec:     st.Execs,
			Cycles:   st.Cycles,
			Input:    append([]byte(nil), input...),
			CrashPC:  out.CrashPC,
			Kind:     out.Kind,
			Detected: out.Detected,
		}
		k := f.key()
		if seen[k] {
			return nil
		}
		seen[k] = true
		mt.advance(0, 0, 1)
		min, err := minimize(f.Input, k)
		f.Minimized = min
		st.Findings = append(st.Findings, f)
		return err
	}

	// Seed phase: every seed is executed to chart the frontier; surviving
	// seeds join the corpus unconditionally (they are the mutation bases),
	// crashing seeds go straight to triage.
	for _, s := range cfg.Seeds {
		out, cov, err := execute(s)
		if err != nil {
			return st, err
		}
		mt.advance(mergeCov(st.Virgin, cov), 0, 0)
		if out.Crashed {
			if err := triage(s, out); err != nil {
				return st, err
			}
			continue
		}
		st.Corpus = append(st.Corpus, append([]byte(nil), s...))
		mt.advance(0, 1, 0)
	}

	// Mutation phase: pick a parent, mutate, execute; coverage novelty
	// admits survivors to the corpus, crashes go to triage.
	for ; st.MutationExecs < budget; st.MutationExecs++ {
		var parent []byte
		if len(st.Corpus) > 0 {
			parent = st.Corpus[r.Intn(len(st.Corpus))]
		} else {
			parent = cfg.Seeds[r.Intn(len(cfg.Seeds))]
		}
		input := mut.mutate(parent, st.Corpus)
		out, cov, err := execute(input)
		if err != nil {
			return st, err
		}
		news := mergeCov(st.Virgin, cov)
		mt.advance(news, 0, 0)
		if out.Crashed {
			if err := triage(input, out); err != nil {
				return st, err
			}
			continue
		}
		if news > 0 {
			// input is the mutator's reused buffer; triage copies what it
			// keeps, and so does admission.
			st.Corpus = append(st.Corpus, append([]byte(nil), input...))
			mt.advance(0, 1, 0)
		}
	}
	return st, nil
}

// Run executes the fuzzing campaign: cfg.Shards self-contained shards, each
// against its own boot'ed victim, executed by cfg.Workers goroutines. It is
// RunShards over the whole range followed by MergePartials — the one path
// every fuzzing run takes, locally, in the daemon and across the fabric —
// so for a fixed seed the Report is bit-identical at any worker count and
// any lease split.
//
// On cancellation Run returns the partial report of the work done so far
// together with ctx.Err(). Any transport/boot error aborts the run and is
// returned with the partial report.
func Run(ctx context.Context, cfg Config, boot Boot) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	parts, err := RunShards(ctx, cfg, boot, 0, cfg.Shards)
	return merge(cfg, parts), err
}

// Normalize resolves the run's defaults and clamps (shards to execs,
// workers to shards, ...) and validates it — exactly what Run does
// internally. The distributed fabric normalizes once on the coordinator so
// every worker leases shards of the same final scenario. Idempotent.
func (c Config) Normalize() (Config, error) {
	return c.withDefaults()
}

// Partial is one shard's complete result — the engine's own shard state
// (corpus inputs and the bucketed virgin map included, base64 on the wire)
// and the unit a fabric worker ships back, so the distributed merge folds
// exactly what a local run folds.
type Partial struct {
	Shard         int       `json:"shard"`
	Execs         int       `json:"execs"`
	MutationExecs int       `json:"mutation_execs"`
	Crashes       int       `json:"crashes"`
	Cycles        uint64    `json:"cycles"`
	Insts         uint64    `json:"insts"`
	Corpus        [][]byte  `json:"corpus,omitempty"`
	Virgin        []byte    `json:"virgin,omitempty"`
	Findings      []Finding `json:"findings,omitempty"`
}

// Fits reports whether p can answer lease [lo, hi) of a campaign: it is one of
// those shards and its virgin map is absent or exactly one coverage map
// long. A coordinator applies it before merging a worker's partial, since
// MergePartials accepts any shard of the campaign and ORs the virgin map
// into a map-sized union. The plan is unused (the map size is fixed); it
// keeps the check's shape uniform across the engines.
func (p *Partial) Fits(_ Config, lo, hi int) bool {
	return p != nil && p.Shard >= lo && p.Shard < hi &&
		(len(p.Virgin) == 0 || len(p.Virgin) == vm.CovMapSize)
}

// RunShards executes shards [lo, hi) of the fuzzing campaign and returns
// their partials in shard order. cfg must be the full (ideally
// pre-Normalized) scenario — shard indices keep their global meaning, so
// rng streams and budget shares are identical at any split. On error the
// partials hold whatever ran, a failed shard's up to its failure.
func RunShards(ctx context.Context, cfg Config, boot Boot, lo, hi int) ([]*Partial, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Shards || lo >= hi {
		return nil, fmt.Errorf("fuzz: shard range [%d,%d) outside shards [0,%d)", lo, hi, cfg.Shards)
	}
	workers := cfg.Workers
	if workers > hi-lo {
		workers = hi - lo
	}
	slots := make([]*Partial, hi-lo)
	mt := newProgressMeter(cfg)
	// Cancellation and fatal-error semantics live in workpool.Run; a shard
	// stores its (possibly partial) result before reporting any error, so
	// cancelled runs still merge the work done so far.
	poolErr := workpool.RunRange(ctx, lo, hi, workers, func(ctx context.Context, shard int) error {
		ex, err := boot(ctx, shard)
		if err != nil {
			return fmt.Errorf("fuzz: boot shard %d: %w", shard, err)
		}
		st, err := runShard(ctx, cfg, shard, ex, mt)
		slots[shard-lo] = st
		if err == nil {
			mt.shardDone()
		}
		return err
	})
	var parts []*Partial
	for _, st := range slots {
		if st != nil {
			parts = append(parts, st)
		}
	}
	return parts, poolErr
}

// MergePartials folds partials into the run's report. Partials may arrive
// in any order and may repeat a shard (a reassigned lease): slots are keyed
// by shard index, so a duplicate overwrites with identical data. Missing
// shards merge like a cancelled run's.
func MergePartials(cfg Config, parts []*Partial) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return merge(cfg, parts), nil
}

// merge folds partials into the final report in shard order, keyed by
// shard index, deduplicating findings across shards by triage key.
func merge(cfg Config, parts []*Partial) *Report {
	results := make([]*Partial, cfg.Shards)
	for _, p := range parts {
		if p != nil && p.Shard >= 0 && p.Shard < cfg.Shards {
			results[p.Shard] = p
		}
	}
	rep := &Report{Label: cfg.Label, Shards: cfg.Shards}
	union := make([]byte, vm.CovMapSize)
	seen := make(map[crashKey]bool)
	for _, st := range results {
		if st == nil {
			continue
		}
		rep.Execs += st.Execs
		rep.MutationExecs += st.MutationExecs
		rep.Crashes += st.Crashes
		rep.Cycles += st.Cycles
		rep.Insts += st.Insts
		orWords(union, st.Virgin)
		for _, in := range st.Corpus {
			rep.CorpusHashes = append(rep.CorpusHashes, hash64(in))
			rep.corpus = append(rep.corpus, in)
		}
		for _, f := range st.Findings {
			if k := f.key(); !seen[k] {
				seen[k] = true
				rep.Findings = append(rep.Findings, f)
			}
			if rep.ExecsToFirstCrash == 0 || f.Exec < rep.ExecsToFirstCrash {
				rep.ExecsToFirstCrash = f.Exec
			}
		}
	}
	rep.CorpusSize = len(rep.CorpusHashes)
	rep.Edges = nonzeroBytes(union)
	rep.CoverageHash = hash64(union)
	rep.virgin = union
	return rep
}

// orWords ORs src into dst (len(src) <= len(dst)) eight bytes at a time,
// with a byte loop for the tail.
func orWords(dst, src []byte) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])|binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] |= src[i]
	}
}

// nonzeroBytes counts the nonzero bytes of b, skipping all-zero words
// eight bytes at a time.
func nonzeroBytes(b []byte) int {
	n, i := 0, 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if w == 0 {
			continue
		}
		// Fold each byte's bits into its low bit, then count the bytes
		// whose low bit is set.
		w |= w >> 4
		w |= w >> 2
		w |= w >> 1
		n += bits.OnesCount64(w & 0x0101010101010101)
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			n++
		}
	}
	return n
}
