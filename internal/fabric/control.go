package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// The coordinator's control plane speaks the daemon's line protocol
// (daemon.Request / daemon.Response, one JSON object per line), so the
// existing client library drives it unchanged. A listener started with
// Serve accepts two kinds of connections, told apart by the first line:
// a `register` request is a `psspd -worker -join` flipping roles (the
// coordinator becomes the client of that connection), anything else is a
// control client (psspctl -remote) issuing submit/status/cancel/aggregate/
// stats requests.

// SubmitParams asks the coordinator to start a fabric job. Kind selects
// which param set applies.
type SubmitParams struct {
	// Kind is "campaign", "loadtest", or "fuzz".
	Kind   string               `json:"kind"`
	Attack *daemon.AttackParams `json:"attack,omitempty"`
	Load   *daemon.LoadParams   `json:"load,omitempty"`
	Fuzz   *daemon.FuzzParams   `json:"fuzz,omitempty"`
	// CorpusDir names a shared persistent corpus for fuzz jobs.
	CorpusDir string `json:"corpus_dir,omitempty"`
	// UntilStall > 0 runs a fuzz job in continuous mode: rounds until the
	// frontier hash is unchanged for this many consecutive rounds.
	UntilStall int `json:"until_stall,omitempty"`
}

// SubmitResult returns the submitted job's id.
type SubmitResult struct {
	ID uint64 `json:"id"`
}

// JobStatus is one job's row in status output.
type JobStatus struct {
	ID   uint64 `json:"id"`
	Kind string `json:"kind"`
	// State is "running", "done", "failed", or "canceled".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// StatusParams selects jobs; ID 0 lists all.
type StatusParams struct {
	ID uint64 `json:"id,omitempty"`
}

// StatusResult lists job rows, ordered by id.
type StatusResult struct {
	Jobs []JobStatus `json:"jobs"`
}

// AggregateParams name the finished job whose merged report to fetch.
type AggregateParams struct {
	ID uint64 `json:"id"`
}

// job is one submitted fabric job.
type job struct {
	id     uint64
	kind   string
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string
	result json.RawMessage
	errMsg string
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg}
}

// jobTable is the control plane's job registry.
type jobTable struct {
	mu     sync.Mutex
	nextID uint64
	jobs   map[uint64]*job
}

// Serve accepts worker registrations and control clients on lis until ctx
// ends or the listener is closed. Jobs submitted by control clients run
// under ctx.
func (c *Coordinator) Serve(ctx context.Context, lis net.Listener) error {
	go func() {
		<-ctx.Done()
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go c.handleConn(ctx, conn)
	}
}

// handshakeTimeout bounds how long a fresh connection may take to send its
// first line, so a silent peer cannot pin a goroutine forever.
var handshakeTimeout = 10 * time.Second

// handleConn reads a connection's first line to tell a registering worker
// from a control client.
func (c *Coordinator) handleConn(ctx context.Context, conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), daemon.MaxLine)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if !sc.Scan() {
		// Silent past the deadline, an over-long line, or gone.
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var req daemon.Request
	if json.Unmarshal(sc.Bytes(), &req) == nil && req.Method == "register" {
		var p daemon.RegisterParams
		if len(req.Params) > 0 {
			json.Unmarshal(req.Params, &p)
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", p.Pid)
		}
		ack, _ := json.Marshal(daemon.RegisterResult{OK: true, Name: name})
		if err := json.NewEncoder(conn).Encode(daemon.Response{ID: req.ID, Result: ack}); err != nil {
			conn.Close()
			return
		}
		// The handshake is half-duplex: the worker sends nothing after its
		// register line until we issue requests, so the scanner holds no
		// buffered post-handshake bytes and the raw conn can carry the
		// client side.
		c.AttachConn(conn, name)
		return
	}
	c.serveControl(ctx, conn, sc)
}

// serveControl answers control requests on one connection, starting with
// the line sc already holds. Requests are answered in order; submit
// returns immediately (the job runs in the background) so a single control
// connection can multiplex submissions and polls. A malformed line gets a
// bad-request response and the connection stays usable.
func (c *Coordinator) serveControl(ctx context.Context, conn net.Conn, sc *bufio.Scanner) {
	defer conn.Close()
	var wmu sync.Mutex
	enc := json.NewEncoder(conn)
	reply := func(resp daemon.Response) bool {
		wmu.Lock()
		defer wmu.Unlock()
		return enc.Encode(resp) == nil
	}
	for ok := true; ok; ok = sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var req daemon.Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			bad := &daemon.Error{Code: daemon.CodeBadRequest, Message: fmt.Sprintf("malformed control line: %v", err)}
			if !reply(daemon.Response{Error: bad}) {
				return
			}
			continue
		}
		if !c.controlRequest(ctx, req, reply) {
			return
		}
	}
}

// controlRequest dispatches one control request; it reports whether the
// connection is still usable.
func (c *Coordinator) controlRequest(ctx context.Context, req daemon.Request, reply func(daemon.Response) bool) bool {
	fail := func(code, format string, args ...any) bool {
		return reply(daemon.Response{ID: req.ID, Error: &daemon.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
	}
	result := func(v any) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			return fail(daemon.CodeInternal, "encoding result: %v", err)
		}
		return reply(daemon.Response{ID: req.ID, Result: raw})
	}
	switch req.Method {
	case "ping":
		return result(map[string]bool{"ok": true})
	case "stats":
		st := c.Stats()
		st.Jobs = c.jobStatuses(0)
		return result(st)
	case "metrics":
		snap := c.cfg.Metrics.Snapshot()
		if snap == nil {
			snap = []obs.Series{}
		}
		return result(snap)
	case "submit":
		var p SubmitParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad submit params: %v", err)
		}
		id, err := c.submit(ctx, p)
		if err != nil {
			return fail(daemon.CodeBadRequest, "%v", err)
		}
		return result(SubmitResult{ID: id})
	case "status":
		var p StatusParams
		if len(req.Params) > 0 {
			if err := json.Unmarshal(req.Params, &p); err != nil {
				return fail(daemon.CodeBadRequest, "bad status params: %v", err)
			}
		}
		return result(StatusResult{Jobs: c.jobStatuses(p.ID)})
	case "cancel":
		var p daemon.CancelParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad cancel params: %v", err)
		}
		j := c.jobByID(p.ID)
		if j == nil {
			return fail(daemon.CodeBadRequest, "no job %d", p.ID)
		}
		j.mu.Lock()
		running := j.state == "running"
		if running {
			j.state = "canceled"
		}
		j.mu.Unlock()
		if running {
			j.cancel()
		}
		return result(daemon.CancelResult{Canceled: running})
	case "aggregate":
		var p AggregateParams
		if err := json.Unmarshal(req.Params, &p); err != nil {
			return fail(daemon.CodeBadRequest, "bad aggregate params: %v", err)
		}
		j := c.jobByID(p.ID)
		if j == nil {
			return fail(daemon.CodeBadRequest, "no job %d", p.ID)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case j.state == "running":
			return fail(daemon.CodeBusy, "job %d still running", p.ID)
		case j.result == nil:
			return fail(daemon.CodeInternal, "job %d %s: %s", p.ID, j.state, j.errMsg)
		}
		return reply(daemon.Response{ID: req.ID, Result: j.result})
	default:
		return fail(daemon.CodeBadRequest, "unknown method %q", req.Method)
	}
}

func (c *Coordinator) table() *jobTable {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.jobs == nil {
		c.jobs = &jobTable{jobs: make(map[uint64]*job)}
	}
	return c.jobs
}

func (c *Coordinator) jobByID(id uint64) *job {
	t := c.table()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

func (c *Coordinator) jobStatuses(id uint64) []JobStatus {
	t := c.table()
	t.mu.Lock()
	var out []JobStatus
	for _, j := range t.jobs {
		if id == 0 || j.id == id {
			out = append(out, j.status())
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Job validates p and returns the run that executes it to its report —
// the kind's run function on the lease executor. Its result is the value
// psspctl's one-shot mode emits and the control plane stores for
// -aggregate, so the two are byte-identical by construction.
func (c *Coordinator) Job(p SubmitParams) (func(ctx context.Context) (any, error), error) {
	var (
		app, scheme string
		seed        uint64
		run         func(context.Context, daemon.Executor) (any, error)
	)
	switch {
	case p.Kind == "campaign" && p.Attack != nil:
		a := daemon.NormalizeAttackParams(*p.Attack)
		app, scheme, seed = a.Target, a.Scheme, a.Seed
		run = func(ctx context.Context, x daemon.Executor) (any, error) { return daemon.RunAttack(ctx, a, x) }
	case p.Kind == "loadtest" && p.Load != nil:
		l := daemon.NormalizeLoadParams(*p.Load)
		app, scheme, seed = l.App, l.Scheme, l.Seed
		run = func(ctx context.Context, x daemon.Executor) (any, error) {
			res, err := daemon.RunLoad(ctx, l, x)
			if err == nil && res.Canceled {
				// A fabric job has no partial-report shape: a sweep
				// canceled after its first point fails like any other.
				err = context.Canceled
			}
			return res.Bare(), err
		}
	case p.Kind == "fuzz" && p.Fuzz != nil:
		f := daemon.NormalizeFuzzParams(*p.Fuzz)
		app, scheme, seed = f.App, f.Scheme, f.Seed
		run = func(ctx context.Context, x daemon.Executor) (any, error) {
			return daemon.RunFuzz(ctx, f, p.CorpusDir, p.UntilStall, x, func(format string, args ...any) {
				c.logf("fabric: fuzz "+format, args...)
			})
		}
	case p.Kind == "campaign" || p.Kind == "loadtest" || p.Kind == "fuzz":
		return nil, fmt.Errorf("submit %s: missing the kind's params", p.Kind)
	default:
		return nil, fmt.Errorf("submit: unknown kind %q (want campaign, loadtest or fuzz)", p.Kind)
	}
	return func(ctx context.Context) (any, error) {
		if seed == 0 {
			return nil, errSeed
		}
		planner, err := daemon.NewLocal(app, scheme, seed, "")
		if err != nil {
			return nil, err
		}
		return run(ctx, &leased{Local: planner, c: c})
	}, nil
}

// submit validates p, registers a job, and starts it in the background.
func (c *Coordinator) submit(ctx context.Context, p SubmitParams) (uint64, error) {
	run, err := c.Job(p)
	if err != nil {
		return 0, err
	}
	jctx, cancel := context.WithCancel(ctx)
	t := c.table()
	t.mu.Lock()
	t.nextID++
	j := &job{id: t.nextID, kind: p.Kind, cancel: cancel, state: "running"}
	t.jobs[j.id] = j
	t.mu.Unlock()

	go func() {
		defer cancel()
		res, err := run(jctx)
		j.mu.Lock()
		defer j.mu.Unlock()
		if err != nil {
			if j.state == "running" {
				j.state = "failed"
			}
			j.errMsg = err.Error()
			return
		}
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.state, j.errMsg = "failed", merr.Error()
			return
		}
		if j.state == "running" {
			j.state = "done"
		}
		j.result = raw
	}()
	return j.id, nil
}
