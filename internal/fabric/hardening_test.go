package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/daemon"
	"repro/internal/vm"
	"repro/pssp"
)

// rogueWorker is the coordinator's end of a fake worker that answers every
// lease, whose params decode as P, with answer's result — a buggy worker
// whose partials do not fit the lease it was given.
func rogueWorker[P any](answer func(P) any) net.Conn {
	coordSide, workerSide := net.Pipe()
	go func() {
		defer workerSide.Close()
		sc := bufio.NewScanner(workerSide)
		enc := json.NewEncoder(workerSide)
		for sc.Scan() {
			var req daemon.Request
			var lease P
			if json.Unmarshal(sc.Bytes(), &req) != nil || json.Unmarshal(req.Params, &lease) != nil {
				return
			}
			raw, _ := json.Marshal(answer(lease))
			if enc.Encode(daemon.Response{ID: req.ID, Result: raw}) != nil {
				return
			}
		}
	}()
	return coordSide
}

// withRogue builds a coordinator whose first-claimed worker is rogue and
// whose second is an honest psspd, and runs job on it.
func withRogue(t *testing.T, rogue net.Conn, job func(context.Context, *Coordinator) (any, error)) (any, *Coordinator) {
	t.Helper()
	c := New(Config{LeaseShards: 1, Backoff: time.Millisecond})
	t.Cleanup(c.Close)
	// The rogue attaches first, so it is claimed first.
	c.AttachConn(rogue, "rogue")
	if err := c.Connect(startWorker(t, 99)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := job(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	return got, c
}

// checkRogueFailed asserts the rogue was declared dead and its lease
// re-issued to the honest worker.
func checkRogueFailed(t *testing.T, c *Coordinator) {
	t.Helper()
	st := c.Stats()
	for _, w := range st.Workers {
		if w.Name == "rogue" && w.Alive {
			t.Error("rogue worker still alive after answering with a partial that does not fit its lease")
		}
	}
	if st.LeasesReassigned == 0 {
		t.Error("rogue's lease was not re-issued")
	}
}

// TestOutOfLeasePartialFailsLease: a partial claiming the replication just
// past its lease would overwrite another lease's slot in the merge.
func TestOutOfLeasePartialFailsLease(t *testing.T) {
	p := daemon.AttackParams{Target: "nginx-vuln", Scheme: "ssp", Budget: 128, Repeats: 4, Seed: 7}
	want := asJSON(t, localCampaign(t, p))
	got, c := withRogue(t, rogueWorker(func(sp daemon.CampaignShardParams) any {
		return daemon.CampaignShardResult{Partial: &pssp.CampaignPartial{
			Lo: sp.Lo, Hi: sp.Hi,
			Outcomes: []campaign.Outcome{{Rep: sp.Hi, Success: true, Verified: true, Trials: 1, OracleCalls: 1}},
		}}
	}), func(ctx context.Context, c *Coordinator) (any, error) {
		return typed[daemon.AttackReport](ctx, c, SubmitParams{Kind: "campaign", Attack: &p})
	})
	if g := asJSON(t, got); g != want {
		t.Errorf("out-of-lease partial leaked into the merge:\n got %s\nwant %s", g, want)
	}
	checkRogueFailed(t, c)
}

// TestMisshapenPartialFailsLease: partials inside their lease but shaped
// unlike the plan — a load partial missing its mix classes, a fuzz partial
// whose virgin map overruns the coverage map — would crash the merge.
func TestMisshapenPartialFailsLease(t *testing.T) {
	t.Run("loadtest", func(t *testing.T) {
		p := daemon.NormalizeLoadParams(daemon.LoadParams{App: "nginx", Requests: 32, Shards: 4, Seed: 7})
		m := pssp.NewMachine(pssp.WithSeed(p.Seed), pssp.WithScheme(pssp.SchemePSSP))
		img, err := m.Pipeline().CompileApp(p.App).Image()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := daemon.LoadWorkload(p, p.App, p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.LoadTest(context.Background(), img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, c := withRogue(t, rogueWorker(func(sp daemon.LoadShardParams) any {
			return daemon.LoadShardResult{Partials: []*pssp.LoadPartial{{Shard: sp.Lo, Requests: 1}}}
		}), func(ctx context.Context, c *Coordinator) (any, error) {
			return typed[*pssp.LoadReport](ctx, c, SubmitParams{Kind: "loadtest", Load: &p})
		})
		if g, w := asJSON(t, got), asJSON(t, want); g != w {
			t.Errorf("misshapen load partial leaked into the merge:\n got %s\nwant %s", g, w)
		}
		checkRogueFailed(t, c)
	})
	t.Run("fuzz", func(t *testing.T) {
		p := daemon.NormalizeFuzzParams(daemon.FuzzParams{App: "nginx-vuln", Execs: 64, Shards: 4, Seed: 7})
		m := pssp.NewMachine(pssp.WithSeed(p.Seed), pssp.WithScheme(pssp.SchemeSSP))
		img, err := m.Pipeline().CompileApp(p.App).Image()
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Fuzz(context.Background(), img, daemon.FuzzConfig(p, p.Seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		got, c := withRogue(t, rogueWorker(func(sp daemon.FuzzShardParams) any {
			return daemon.FuzzShardResult{Partials: []*pssp.FuzzPartial{{Shard: sp.Lo, Execs: 1, Virgin: make([]byte, vm.CovMapSize+1)}}}
		}), func(ctx context.Context, c *Coordinator) (any, error) {
			res, err := typed[daemon.FuzzResult](ctx, c, SubmitParams{Kind: "fuzz", Fuzz: &p})
			return res.FuzzReport, err
		})
		if g, w := asJSON(t, got), asJSON(t, want); g != w {
			t.Errorf("misshapen fuzz partial leaked into the merge:\n got %s\nwant %s", g, w)
		}
		checkRogueFailed(t, c)
	})
}

// serveOne runs handleConn on the coordinator end of a pipe and returns
// the peer end plus a channel closed when handleConn returns.
func serveOne(t *testing.T) (net.Conn, <-chan struct{}) {
	t.Helper()
	c := New(Config{})
	t.Cleanup(c.Close)
	peer, coordSide := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	done := make(chan struct{})
	go func() {
		c.handleConn(context.Background(), coordSide)
		close(done)
	}()
	return peer, done
}

func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s held the connection open", what)
	}
}

func TestHandshakeDropsSilentPeer(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 50 * time.Millisecond
	peer, done := serveOne(t)
	waitDone(t, done, "a silent peer")
	peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still readable after the handshake deadline")
	}
}

func TestHandshakeBoundsFirstLine(t *testing.T) {
	peer, done := serveOne(t)
	// Stream past daemon.MaxLine with no newline: the coordinator must hang up
	// instead of buffering the line without bound.
	chunk := bytes.Repeat([]byte("x"), 64<<10)
	var err error
	for sent := 0; sent <= daemon.MaxLine && err == nil; sent += len(chunk) {
		_, err = peer.Write(chunk)
	}
	if err == nil {
		t.Fatalf("coordinator accepted a first line over %d bytes", daemon.MaxLine)
	}
	waitDone(t, done, "an oversized first line")
}

func TestControlAnswersMalformedLines(t *testing.T) {
	peer, _ := serveOne(t)
	peer.SetDeadline(time.Now().Add(5 * time.Second))
	sc := bufio.NewScanner(peer)
	roundTrip := func(line string) daemon.Response {
		t.Helper()
		if _, err := peer.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %q: %v", line, sc.Err())
		}
		var resp daemon.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// A malformed first line and a malformed later line both get a typed
	// bad-request, and the connection keeps serving.
	for _, line := range []string{"{not json", `{"id":1,"method":"ping"}`, "][", `{"id":2,"method":"ping"}`} {
		resp := roundTrip(line)
		if line[0] == '{' && line[1] == '"' {
			if resp.Error != nil || resp.Result == nil {
				t.Fatalf("%q: want a result, got %+v", line, resp)
			}
			continue
		}
		if resp.Error == nil || resp.Error.Code != daemon.CodeBadRequest {
			t.Fatalf("%q: want bad-request, got %+v", line, resp)
		}
	}
}
