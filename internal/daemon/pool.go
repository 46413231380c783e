package daemon

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/pssp"
)

// imageKey identifies a compiled image: compilation is deterministic in
// (app, scheme), so one cache entry serves every seed.
type imageKey struct {
	app    string
	scheme pssp.Scheme
}

// poolKey identifies a warm machine: the image plus the machine seed. Jobs
// with the same key are interchangeable — a parked entry serves any of
// them with CLI-identical results.
type poolKey struct {
	imageKey
	seed uint64
}

// entry is one parked machine: a fresh-booted fork server (zero requests
// served) on a machine seeded with key.seed, plus the image it serves.
// Campaign/loadtest/fuzz jobs run on the machine (their victims are
// replicas derived purely from the job seed, so they leave the entry
// pristine); boot jobs read the parked server. An entry whose server has
// served requests is dirty: its kernel state has diverged from a fresh
// boot, so check-in replaces it to keep the determinism contract.
type entry struct {
	key poolKey
	m   *pssp.Machine
	img *pssp.Image
	srv *pssp.Server
}

// pool is the warm machine pool: parked entries keyed by (app, scheme,
// seed) with LRU eviction, over a compiled-image cache keyed by (app,
// scheme). Checkout is exclusive — an entry is either parked here or owned
// by exactly one job.
type pool struct {
	mu  sync.Mutex
	cap int
	// store, when non-nil, backs every compile: an in-process image-cache
	// miss becomes a store lookup before it becomes a compile, so images
	// survive daemon restarts and are shared with other processes via the
	// store's mmap'd blobs.
	store *pssp.Store

	entries map[poolKey]*entry
	order   []poolKey // LRU, oldest first

	images map[imageKey]*pssp.Image

	hits, misses, evictions, respawns uint64
}

func newPool(capacity int, store *pssp.Store) *pool {
	if capacity <= 0 {
		capacity = 8
	}
	return &pool{
		cap:     capacity,
		store:   store,
		entries: make(map[poolKey]*entry),
		images:  make(map[imageKey]*pssp.Image),
	}
}

// newMachine builds a machine under (scheme, seed), compiling through the
// artifact store st when non-nil: the one machine builder of the pool's
// entries and of the local executor (NewLocal).
func newMachine(s pssp.Scheme, seed uint64, st *pssp.Store) *pssp.Machine {
	opts := []pssp.Option{pssp.WithSeed(seed), pssp.WithScheme(s)}
	if st != nil {
		opts = append(opts, pssp.WithStore(st))
	}
	return pssp.NewMachine(opts...)
}

// image returns the cached compiled image for key, compiling on miss. The
// compile runs outside the lock (it dominates cold-job latency); two
// concurrent misses may both compile, but compilation is deterministic so
// either result is the same image and the second simply wins the store.
// ctx carries the job's flight-recorder trace; compile and store spans
// land there.
func (p *pool) image(ctx context.Context, key imageKey) (*pssp.Image, bool, error) {
	tr := obs.TraceFrom(ctx)
	p.mu.Lock()
	if img, ok := p.images[key]; ok {
		p.mu.Unlock()
		tr.Event("image cached", 0, key.app)
		return img, true, nil
	}
	p.mu.Unlock()

	// With a store attached the compile pipeline is a store lookup first;
	// the hit/miss delta around the compile attributes it. Concurrent
	// compiles can skew the delta — the trace is diagnostic, the counters
	// (store collector) are the ground truth.
	var before pssp.StoreStats
	if p.store != nil && tr != nil {
		before = p.store.Stats()
	}
	// Compilation is seed-independent; 1 is the machine default.
	m := newMachine(key.scheme, 1, p.store)
	img, err := m.Pipeline().CompileApp(key.app).Image()
	if err != nil {
		return nil, false, err
	}
	if p.store != nil && tr != nil {
		after := p.store.Stats()
		if after.Hits > before.Hits {
			tr.Event("store hit", 0, key.app)
		} else if after.Misses > before.Misses {
			tr.Event("store miss", 0, key.app)
		}
	}
	tr.Event("compile", 0, key.app)
	p.mu.Lock()
	if cached, ok := p.images[key]; ok {
		img = cached
	} else {
		p.images[key] = img
	}
	p.mu.Unlock()
	return img, false, nil
}

// build boots a fresh entry for key: a new machine seeded with key.seed
// serving the (cached) image, parked at its accept point.
func (p *pool) build(ctx context.Context, key poolKey) (*entry, error) {
	img, _, err := p.image(ctx, key.imageKey)
	if err != nil {
		return nil, err
	}
	m := newMachine(key.scheme, key.seed, p.store)
	srv, err := m.Serve(ctx, img)
	if err != nil {
		return nil, fmt.Errorf("daemon: booting %s/%s seed %d: %w", key.app, key.scheme, key.seed, err)
	}
	obs.TraceFrom(ctx).Event("boot", 0, key.app)
	return &entry{key: key, m: m, img: img, srv: srv}, nil
}

// checkout hands the caller exclusive ownership of a warm entry for key,
// building one on miss. A parked entry that fails its health check — the
// parent no longer alive and waiting in accept — is respawned from the
// image instead of handed out.
func (p *pool) checkout(ctx context.Context, key poolKey) (*entry, error) {
	tr := obs.TraceFrom(ctx)
	p.mu.Lock()
	e, ok := p.entries[key]
	if ok {
		delete(p.entries, key)
		p.removeOrder(key)
		if e.srv.Parked() {
			p.hits++
			p.mu.Unlock()
			tr.Event("pool checkout", 0, "hit")
			return e, nil
		}
		// Crashed or otherwise un-parked entry: retire it and fall through
		// to a fresh build.
		p.respawns++
		p.mu.Unlock()
		kernel.CountRespawn()
		tr.Event("pool respawn", 0, key.app)
		e.m.Close()
		p.mu.Lock()
	}
	p.misses++
	p.mu.Unlock()
	tr.Event("pool checkout", 0, "miss")
	return p.build(ctx, key)
}

// checkin returns an entry to the pool. A dirty entry — its parked server
// has handled requests or was closed, so its kernel state no longer
// matches a fresh boot — is replaced by a rebuilt one (the old machine's
// buffers are released on Close). Inserting may LRU-evict the
// least-recently-used entry, whose machine is closed too.
func (p *pool) checkin(ctx context.Context, e *entry) {
	if e == nil {
		return
	}
	if e.srv.Closed() || e.srv.Requests() > 0 || !e.srv.Parked() {
		e.m.Close()
		fresh, err := p.build(ctx, e.key)
		if err != nil {
			// Cancellation mid-rebuild (or a boot failure): drop the slot;
			// the next checkout for this key rebuilds.
			return
		}
		p.mu.Lock()
		p.respawns++
		p.mu.Unlock()
		e = fresh
	}
	p.mu.Lock()
	if _, dup := p.entries[e.key]; dup {
		// Another job already parked an equivalent entry (possible after a
		// concurrent rebuild). Keep the parked one, retire this one.
		p.mu.Unlock()
		e.m.Close()
		return
	}
	p.entries[e.key] = e
	p.order = append(p.order, e.key)
	var evicted []*entry
	for len(p.order) > p.cap {
		victim := p.order[0]
		p.order = p.order[1:]
		if ev, ok := p.entries[victim]; ok {
			delete(p.entries, victim)
			evicted = append(evicted, ev)
			p.evictions++
		}
	}
	p.mu.Unlock()
	for _, ev := range evicted {
		ev.m.Close()
	}
}

// removeOrder drops key from the LRU order (caller holds p.mu).
func (p *pool) removeOrder(key poolKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// close retires every parked entry, releasing their buffers.
func (p *pool) close() {
	p.mu.Lock()
	entries := p.entries
	p.entries = make(map[poolKey]*entry)
	p.order = nil
	p.mu.Unlock()
	for _, e := range entries {
		e.m.Close()
	}
}

// stats snapshots the pool's counters, including the artifact store's hit
// and miss tallies when one is attached — these split a cold pool miss that
// compiled from one the store served.
func (p *pool) stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Entries:   len(p.entries),
		Capacity:  p.cap,
		Images:    len(p.images),
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Respawns:  p.respawns,
	}
	store := p.store
	p.mu.Unlock()
	if store != nil {
		ss := store.Stats()
		st.StoreHits, st.StoreMisses = ss.Hits, ss.Misses
	}
	return st
}
