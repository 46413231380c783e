package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/pssp"
)

// Typed admission errors; the wire maps them to stable codes and the
// client library maps those codes back, so errors.Is works end to end.
var (
	// ErrQuotaExceeded rejects a job whose tenant exhausted its
	// victim-cycle quota.
	ErrQuotaExceeded = errors.New("daemon: tenant quota exceeded")
	// ErrBusy rejects a job the admission queue cannot hold.
	ErrBusy = errors.New("daemon: admission queue full")
	// ErrShutdown rejects work arriving while the daemon drains.
	ErrShutdown = errors.New("daemon: shutting down")
)

// Config parameterizes the daemon. The zero value serves with the defaults
// noted per field.
type Config struct {
	// Seed is the daemon's master seed (default 1). Tenant seed streams
	// derive from it: tenantSeed = Mix(Seed, fnv64a(name)), and a job that
	// does not name a seed draws Mix(tenantSeed, jobID).
	Seed uint64
	// MaxJobs bounds concurrently running jobs (default 4).
	MaxJobs int
	// MaxQueue bounds jobs waiting for a slot; beyond it admission fails
	// with ErrBusy (default 16).
	MaxQueue int
	// TenantJobs bounds one tenant's concurrently running jobs
	// (default: MaxJobs).
	TenantJobs int
	// QuotaCycles is each tenant's victim-cycle budget; a tenant at or
	// past it is rejected with ErrQuotaExceeded (0 = unlimited).
	QuotaCycles uint64
	// PoolSize bounds the warm machine pool (default 8).
	PoolSize int
	// Store, when non-nil, is the content-addressed artifact store behind
	// every compile: cold pool misses become store lookups, and compiled
	// images persist across daemon restarts. The caller owns the store and
	// closes it after Shutdown returns.
	Store *pssp.Store
	// Metrics, when non-nil, is the registry the daemon publishes its
	// series on (job lifecycle, queue depth, pool and store traffic,
	// per-tenant quota burn). When nil the daemon creates a private
	// registry: its accounting is registry-backed either way, so Stats
	// never takes the job-table lock. Metrics are pure read-side — results
	// are byte-identical with or without a caller registry.
	Metrics *obs.Registry
	// Recorder, when non-nil, is the flight recorder receiving per-job
	// span traces. When nil the daemon creates a private bounded one.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.TenantJobs <= 0 {
		c.TenantJobs = c.MaxJobs
	}
	return c
}

// tenant is one caller's admission and accounting state. Admission
// decisions read and write the atomics under d.mu (so a decision is based
// on a consistent view); Stats and the metrics collector read them lock-free.
type tenant struct {
	name    string
	seed    uint64
	running atomic.Int64
	jobs    atomic.Uint64
	used    atomic.Uint64 // victim cycles charged
}

// Daemon is the serving front end: it owns the warm pool, the tenant
// table, and the admission queue, and serves any number of concurrent
// connections until Shutdown.
type Daemon struct {
	cfg  Config
	pool *pool

	ctx    context.Context // canceled on Shutdown; parent of every job
	cancel context.CancelFunc

	// reg/rec/met are always non-nil: the daemon's own accounting lives in
	// registry-backed atomics, so Stats is lock-free with respect to the
	// admission mutex below.
	reg *obs.Registry
	rec *obs.Recorder
	met *daemonMetrics

	// mu is the admission (job-table) lock: it serializes slot decisions
	// and the wake channel. Stats deliberately never takes it.
	mu      sync.Mutex
	wake    chan struct{} // closed+replaced whenever a slot frees
	nextJob uint64
	start   time.Time
	closed  bool

	// tenantsMu guards only the tenant map; per-tenant tallies are atomics
	// on the tenant itself.
	tenantsMu sync.RWMutex
	tenants   map[string]*tenant

	lisMu     sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
}

// New builds a daemon; call Serve to start accepting.
func New(cfg Config) *Daemon {
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.NewRecorder(0, 0)
	}
	d := &Daemon{
		cfg:       cfg.withDefaults(),
		pool:      newPool(cfg.PoolSize, cfg.Store),
		ctx:       ctx,
		cancel:    cancel,
		reg:       reg,
		rec:       rec,
		met:       newDaemonMetrics(reg),
		wake:      make(chan struct{}),
		tenants:   make(map[string]*tenant),
		start:     time.Now(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	d.registerCollectors(reg)
	return d
}

// Serve accepts connections on lis until Shutdown (which returns it nil)
// or a listener error. Multiple Serve calls on different listeners are
// fine.
func (d *Daemon) Serve(lis net.Listener) error {
	d.lisMu.Lock()
	if d.isClosed() {
		d.lisMu.Unlock()
		return ErrShutdown
	}
	d.listeners[lis] = struct{}{}
	d.lisMu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if d.isClosed() {
				return nil
			}
			return err
		}
		d.lisMu.Lock()
		if d.isClosed() {
			d.lisMu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.wg.Add(1)
		d.lisMu.Unlock()
		go d.serveConn(conn)
	}
}

func (d *Daemon) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// Shutdown drains the daemon: stop accepting, cancel every running job and
// connection, wait for the handlers to unwind (bounded by ctx), then
// retire the warm pool so its parked parents release their buffers.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.wakeAll()
	d.mu.Unlock()

	d.cancel()
	d.lisMu.Lock()
	for lis := range d.listeners {
		lis.Close()
	}
	for conn := range d.conns {
		conn.Close()
	}
	d.lisMu.Unlock()

	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	d.pool.close()
	return nil
}

// wakeAll releases every admission waiter (caller holds d.mu).
func (d *Daemon) wakeAll() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// tenantFor returns (creating on first use) the named tenant. It takes
// only the tenant-map lock, never the admission mutex.
func (d *Daemon) tenantFor(name string) *tenant {
	if name == "" {
		name = "default"
	}
	d.tenantsMu.RLock()
	t, ok := d.tenants[name]
	d.tenantsMu.RUnlock()
	if ok {
		return t
	}
	d.tenantsMu.Lock()
	defer d.tenantsMu.Unlock()
	if t, ok := d.tenants[name]; ok {
		return t
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	t = &tenant{name: name, seed: rng.Mix(d.cfg.Seed, h.Sum64())}
	d.tenants[name] = t
	return t
}

// admit blocks until the job may run (a global slot and a tenant slot are
// both free), or fails fast: ErrQuotaExceeded for an exhausted tenant,
// ErrBusy when the wait queue is full, ErrShutdown while draining, or
// ctx.Err on cancellation. On success the caller owns one slot and must
// release() it.
func (d *Daemon) admit(ctx context.Context, t *tenant) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return ErrShutdown
		}
		if used := t.used.Load(); d.cfg.QuotaCycles > 0 && used >= d.cfg.QuotaCycles {
			return fmt.Errorf("%w: tenant %q spent %d of %d victim cycles",
				ErrQuotaExceeded, t.name, used, d.cfg.QuotaCycles)
		}
		if int(d.met.running.Load()) < d.cfg.MaxJobs && int(t.running.Load()) < d.cfg.TenantJobs {
			d.met.running.Add(1)
			t.running.Add(1)
			t.jobs.Add(1)
			d.met.admitted.Inc()
			return nil
		}
		if int(d.met.queued.Load()) >= d.cfg.MaxQueue {
			return fmt.Errorf("%w: %d jobs queued", ErrBusy, d.met.queued.Load())
		}
		d.met.queued.Add(1)
		ch := d.wake
		d.mu.Unlock()
		var err error
		select {
		case <-ch:
		case <-ctx.Done():
			err = ctx.Err()
		}
		d.mu.Lock()
		d.met.queued.Add(-1)
		if err != nil {
			return err
		}
	}
}

// release returns the job's slot and charges its victim-cycle cost.
func (d *Daemon) release(t *tenant, cost uint64) {
	d.mu.Lock()
	d.met.running.Add(-1)
	t.running.Add(-1)
	t.used.Add(cost)
	d.wakeAll()
	d.mu.Unlock()
}

// jobSeed resolves a job's seed: an explicit seed passes through verbatim
// (the byte-identical-to-CLI contract); 0 draws a fresh derived seed from
// the tenant's stream.
func (d *Daemon) jobSeed(t *tenant, explicit uint64) uint64 {
	if explicit != 0 {
		return explicit
	}
	d.mu.Lock()
	d.nextJob++
	id := d.nextJob
	d.mu.Unlock()
	return rng.Mix(t.seed, id)
}

// Stats snapshots the daemon for the stats method (and tests). Every
// field reads registry-backed atomics or the tenant map's own lock — the
// admission mutex is never taken, so a stats poll cannot stall (or be
// stalled by) job traffic.
func (d *Daemon) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(d.start).Seconds(),
		Running:       int(d.met.running.Load()),
		Queued:        int(d.met.queued.Load()),
		Completed:     d.met.completed.Load(),
		Failed:        d.met.failed.Load(),
		Canceled:      d.met.canceled.Load(),
	}
	d.tenantsMu.RLock()
	names := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.tenants[name]
		st.Tenants = append(st.Tenants, TenantStats{
			Name: t.name, Running: int(t.running.Load()), Jobs: t.jobs.Load(),
			CyclesUsed: t.used.Load(), CyclesQuota: d.cfg.QuotaCycles,
		})
	}
	d.tenantsMu.RUnlock()
	st.Pool = d.pool.stats()
	return st
}

// countFinish tallies a finished job for stats.
func (d *Daemon) countFinish(err error) {
	switch {
	case err == nil:
		d.met.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		d.met.canceled.Inc()
	default:
		d.met.failed.Inc()
	}
}

// Do executes one job in-process — the embedded-daemon entry point (used
// by examples and benchmarks): the same validation, admission, accounting
// and warm pool as the wire path, without a connection. progress may be
// nil; params may be nil for methods whose defaults suffice.
func (d *Daemon) Do(ctx context.Context, tenantName, method string, params any, progress func(ProgressEvent)) (any, error) {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return nil, badRequest("parameters: %v", err)
		}
		raw = b
	}
	return d.execute(ctx, Request{Method: method, Tenant: tenantName, Params: raw}, callbackEvents(progress))
}

// execute runs one job request end to end — validation, admission,
// execution with progress on ev, slot release with cost accounting — for
// the wire (dispatch) and in-process (Do) paths alike.
func (d *Daemon) execute(ctx context.Context, req Request, ev *eventStream) (any, error) {
	t := d.tenantFor(req.Tenant)
	run, err := d.jobFor(req, t)
	if err != nil {
		return nil, err
	}
	ctx, tr := d.beginTrace(ctx, req.Method)
	if err := d.admit(ctx, t); err != nil {
		tr.Event("rejected", 0, err.Error())
		d.countFinish(err)
		return nil, err
	}
	tr.Event("admitted", 0, "")
	result, cost, err := run(ctx, ev)
	d.release(t, cost)
	d.countFinish(err)
	tr.Event("finish", cost, finishDetail(err))
	return result, err
}

// finishDetail renders a job's terminal state for its trace span.
func finishDetail(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// connWriter serializes response/event lines onto one connection.
type connWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *connWriter) send(r Response) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(r)
}

func (w *connWriter) result(id uint64, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return w.fail(id, fmt.Errorf("daemon: encoding result: %w", err))
	}
	return w.send(Response{ID: id, Result: raw})
}

func (w *connWriter) fail(id uint64, err error) error {
	return w.send(Response{ID: id, Error: wireError(err)})
}

// wireError maps an error onto its stable wire code.
func wireError(err error) *Error {
	code := CodeInternal
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		code = CodeQuota
	case errors.Is(err, ErrBusy):
		code = CodeBusy
	case errors.Is(err, ErrShutdown):
		code = CodeShutdown
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = CodeCanceled
	case errors.Is(err, errBadRequest):
		code = CodeBadRequest
	}
	return &Error{Code: code, Message: err.Error()}
}

// errBadRequest classifies parameter validation failures.
var errBadRequest = errors.New("bad request")

// badRequest wraps err as a bad-request wire error.
func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// maxLine bounds one request line (fuzz corpora ride in requests).
const maxLine = 8 << 20

// serveConn runs one connection: a read loop dispatching each request into
// its own goroutine, a per-connection cancel registry for the cancel
// method, and connection teardown canceling everything it started.
func (d *Daemon) serveConn(conn net.Conn) {
	d.serveStream(conn, conn)
}

// serveStream is serveConn reading requests from r — which is conn itself
// on accepted connections, and the join handshake's buffered reader on a
// worker's outbound connection (so no bytes the handshake read ahead are
// lost).
func (d *Daemon) serveStream(conn net.Conn, r io.Reader) {
	defer d.wg.Done()
	defer func() {
		d.lisMu.Lock()
		delete(d.conns, conn)
		d.lisMu.Unlock()
		conn.Close()
	}()

	ctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	w := &connWriter{enc: json.NewEncoder(conn)}

	// jobs maps in-flight request ids to their cancel functions, for the
	// cancel method and for duplicate-id rejection.
	var (
		jobsMu sync.Mutex
		jobs   = make(map[uint64]context.CancelFunc)
		reqWG  sync.WaitGroup
	)
	defer reqWG.Wait()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			w.fail(0, badRequest("malformed request line: %v", err))
			continue
		}
		switch req.Method {
		case "ping":
			w.result(req.ID, map[string]bool{"ok": true})
			continue
		case "stats":
			w.result(req.ID, d.Stats())
			continue
		case "metrics":
			w.result(req.ID, d.reg.Snapshot())
			continue
		case "cancel":
			var p CancelParams
			if err := unmarshalParams(req.Params, &p); err != nil {
				w.fail(req.ID, err)
				continue
			}
			jobsMu.Lock()
			jcancel, ok := jobs[p.ID]
			jobsMu.Unlock()
			if ok {
				jcancel()
			}
			w.result(req.ID, CancelResult{Canceled: ok})
			continue
		}

		jobsMu.Lock()
		if _, dup := jobs[req.ID]; dup {
			jobsMu.Unlock()
			w.fail(req.ID, badRequest("request id %d already in flight", req.ID))
			continue
		}
		jctx, jcancel := context.WithCancel(ctx)
		jobs[req.ID] = jcancel
		jobsMu.Unlock()

		reqWG.Add(1)
		go func(req Request) {
			defer reqWG.Done()
			defer func() {
				jobsMu.Lock()
				delete(jobs, req.ID)
				jobsMu.Unlock()
				jcancel()
			}()
			d.dispatch(jctx, w, req)
		}(req)
	}
}

// unmarshalParams decodes params strictly; a nil raw decodes to the zero
// value (every method has usable defaults).
func unmarshalParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return badRequest("parameters: %v", err)
	}
	return nil
}

// dispatch runs one job request and writes its terminal response.
func (d *Daemon) dispatch(ctx context.Context, w *connWriter, req Request) {
	result, err := d.execute(ctx, req, newEventStream(w, req.ID))
	if err != nil {
		w.fail(req.ID, err)
		return
	}
	w.result(req.ID, result)
}

// eventStream throttles and serializes one job's progress events, onto a
// connection (wire path) or into a callback (in-process path).
type eventStream struct {
	w  *connWriter
	id uint64
	fn func(ProgressEvent)

	mu   sync.Mutex
	last time.Time
}

// eventInterval is the minimum spacing between progress lines per job —
// progress is wall-clock observability, so a fixed wall-clock throttle is
// the right tool.
const eventInterval = 100 * time.Millisecond

func newEventStream(w *connWriter, id uint64) *eventStream {
	return &eventStream{w: w, id: id}
}

// callbackEvents is the in-process eventStream (fn may be nil: discard).
func callbackEvents(fn func(ProgressEvent)) *eventStream {
	return &eventStream{fn: fn}
}

// progress emits ev unless the previous event was under eventInterval ago.
func (s *eventStream) progress(ev ProgressEvent) {
	s.mu.Lock()
	now := time.Now()
	if now.Sub(s.last) < eventInterval {
		s.mu.Unlock()
		return
	}
	s.last = now
	s.mu.Unlock()
	if s.w == nil {
		if s.fn != nil {
			s.fn(ev)
		}
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.w.send(Response{ID: s.id, Event: "progress", Result: raw})
}
