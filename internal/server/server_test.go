package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"supmr"
	"supmr/internal/cliutil"
	"supmr/internal/dag"
	"supmr/internal/jobspec"
)

// startServer brings up a server on a per-test socket and returns a
// connected client plus the socket path. Everything is torn down with
// the test.
func startServer(t *testing.T, ec supmr.EngineConfig) (*Client, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "supmrd.sock")
	srv, err := New(Config{Socket: sock, Engine: ec})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	c, err := Dial(sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, sock
}

// TestServerDigestsMatchDirectRuns is the protocol end-to-end: jobs
// submitted concurrently over the socket — a multi-node one among them —
// produce digests identical to the same specs run directly (no engine,
// no server).
func TestServerDigestsMatchDirectRuns(t *testing.T) {
	specs := []jobspec.Spec{
		{App: "wordcount", Size: 96 << 10, Seed: 3, ChunkBytes: 16 << 10, Tenant: "alice"},
		{App: "sort", Size: 80 << 10, Seed: 23, ChunkBytes: 20 << 10, Tenant: "bob"},
		{App: "wordcount", Size: 96 << 10, Seed: 3, ChunkBytes: 16 << 10, Tenant: "carol", Nodes: 2},
	}
	direct := make([]*jobspec.Result, len(specs))
	for i, s := range specs {
		res, err := jobspec.Run(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("direct %s: %v", s.App, err)
		}
		direct[i] = res
	}

	c, sock := startServer(t, supmr.EngineConfig{Workers: 4, MaxJobs: 2})
	ids := make([]int64, len(specs))
	for i, s := range specs {
		id, err := c.Submit(s)
		if err != nil {
			t.Fatalf("submit %s: %v", s.App, err)
		}
		ids[i] = id
	}
	// Both jobs run concurrently on the engine; wait for each on its own
	// client so neither wait serializes the other.
	var wg sync.WaitGroup
	views := make([]*JobView, len(specs))
	errs := make([]error, len(specs))
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc, err := Dial(sock)
			if err != nil {
				errs[i] = err
				return
			}
			defer wc.Close()
			views[i], errs[i] = wc.Wait(ids[i])
		}(i)
	}
	wg.Wait()
	for i, s := range specs {
		if errs[i] != nil {
			t.Fatalf("wait %s: %v", s.App, errs[i])
		}
		v := views[i]
		if v.State != StateDone {
			t.Fatalf("%s: state %s, error %q", s.App, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Digest == "" {
			t.Fatalf("%s: missing result/digest: %+v", s.App, v)
		}
		if v.Result.Digest != direct[i].Digest {
			t.Errorf("%s: server digest %s != direct digest %s", s.App, v.Result.Digest, direct[i].Digest)
		}
		if v.Result.OutputPairs != direct[i].OutputPairs {
			t.Errorf("%s: server pairs %d != direct pairs %d", s.App, v.Result.OutputPairs, direct[i].OutputPairs)
		}
		if s.Nodes > 1 && v.Result.ShuffleFrames == 0 {
			t.Errorf("%s nodes=%d: no frames crossed the wire on the engine", s.App, s.Nodes)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Completed != int64(len(specs)) {
		t.Errorf("engine completed %d jobs, want %d", stats.Completed, len(specs))
	}
	if _, ok := stats.Tenants["alice"]; !ok {
		t.Errorf("tenant rollup missing alice: %v", stats.Tenants)
	}
	jobs, err := c.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jobs) != len(specs) || jobs[0].ID >= jobs[1].ID || jobs[1].ID >= jobs[2].ID {
		t.Errorf("list returned %+v, want %d jobs oldest first", jobs, len(specs))
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	c, _ := startServer(t, supmr.EngineConfig{Workers: 2})
	cases := []jobspec.Spec{
		{},                               // missing app
		{App: "mapreduce-bitcoin-miner"}, // unknown app
		{App: "wordcount", IOLanes: -1},
		{App: "wordcount", PrefetchDepth: -2},
		{App: "wordcount", Budget: -1},
		{App: "histogram", Budget: 1 << 20}, // array container cannot spill
		{App: "wordcount", Runtime: "phoenix"},
		{App: "wordcount", Nodes: -1},
		{App: "wordcount", Nodes: 2, Runtime: "traditional"},
		{App: "wordcount", Memo: true, Runtime: "traditional"},
		{App: "wordcount", Budget: 1 << 20, Runtime: "traditional"},
		{App: "wordcount", Budget: 1 << 20, Memo: true},
		{App: "wordcount", Budget: 1 << 20, Nodes: 2},
		{App: "wordcount", InNodeCombinerOff: true}, // combiner ablation without nodes
		{App: "wordcount", Weight: -1},
	}
	for _, s := range cases {
		if _, err := c.Submit(s); err == nil {
			t.Errorf("spec %+v accepted, want rejection", s)
		}
	}
	if stats, err := c.Stats(); err != nil || stats.Submitted != 0 {
		t.Errorf("rejected specs reached the engine: %+v (err %v)", stats, err)
	}
	if jobs, err := c.List(); err != nil || len(jobs) != 0 {
		t.Errorf("rejected specs were given job ids: %+v (err %v)", jobs, err)
	}
}

func TestServerCancel(t *testing.T) {
	c, _ := startServer(t, supmr.EngineConfig{Workers: 2})
	// A slow job: simulated bandwidth stretches ingest far beyond the
	// test's patience, so cancel hits it mid-run.
	id, err := c.Submit(jobspec.Spec{App: "wordcount", Size: 8 << 20, ChunkBytes: 64 << 10, BW: 1 << 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	v, err := c.Wait(id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.State != StateCancelled {
		t.Fatalf("state after cancel = %s (error %q), want %s", v.State, v.Error, StateCancelled)
	}
	if !strings.Contains(v.Error, "cancel") {
		t.Errorf("cancelled job error %q does not mention cancellation", v.Error)
	}
}

func TestServerUnknownJobAndOp(t *testing.T) {
	c, _ := startServer(t, supmr.EngineConfig{Workers: 2})
	if _, err := c.Status(42); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Errorf("status of unknown job: %v", err)
	}
	if _, err := c.roundTrip(Request{Op: "frobnicate"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op: %v", err)
	}
}

// TestServerStaleSocketReclaim pins the restart path: a socket file
// left behind by a dead server must not block a new one.
func TestServerStaleSocketReclaim(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "supmrd.sock")
	srv, err := New(Config{Socket: sock, Engine: supmr.EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatalf("first server: %v", err)
	}
	// Simulate a crash: close the listener without removing the file.
	srv.ln.(*net.UnixListener).SetUnlinkOnClose(false)
	srv.ln.Close()
	srv.eng.Close()

	srv2, err := New(Config{Socket: sock, Engine: supmr.EngineConfig{Workers: 1}})
	if err != nil {
		t.Fatalf("server on stale socket: %v", err)
	}
	srv2.Close()
}

// TestServerTypedRejections: a pipeline graph is an ordinary
// submission. It runs round by round on the server's engine and ends
// done with the final round's result, the digest `supmr pipeline -kind
// prefixsum` prints for that round. A malformed graph, like a malformed
// spec, is refused before it gets an id, as a *ProtocolError with exit
// status 1.
func TestServerTypedRejections(t *testing.T) {
	c, _ := startServer(t, supmr.EngineConfig{Workers: 2})

	// The graph `supmr pipeline -kind prefixsum -size 256k` builds.
	base := jobspec.Spec{Size: 256 << 10, Seed: 1, ChunkBytes: 256 << 10, EgressLanes: 2}
	part, total := base, base
	part.App, part.Block = "psum1", 256
	total.App, total.EgressLanes = "psum2", 0
	g := dag.Graph{Nodes: []dag.Node{{ID: "part", Spec: part}, {ID: "total", Spec: total, Input: "part"}}}
	local, err := dag.Run(context.Background(), g, dag.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitGraph(g)
	if err != nil {
		t.Fatalf("graph submit: %v", err)
	}
	v, err := c.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := local.Final().Res; v.State != StateDone || v.Result == nil || v.Result.Digest != want.Digest || v.Result.App != want.App {
		t.Fatalf("graph job %+v (result %+v), want done with %s's digest %.12s", v, v.Result, want.App, want.Digest)
	}

	for _, bad := range []dag.Graph{{}, {Nodes: []dag.Node{{ID: "a", Spec: jobspec.Spec{App: "nope"}}}}} {
		_, err = c.SubmitGraph(bad)
		var pe *ProtocolError
		if !errors.As(err, &pe) || cliutil.ExitCode(err) != 1 {
			t.Fatalf("bad graph %+v: got %v, want a *ProtocolError with exit status 1", bad, err)
		}
	}
	_, err = c.Submit(jobspec.Spec{App: "nope"})
	var pe *ProtocolError
	if !errors.As(err, &pe) || cliutil.ExitCode(err) != 1 {
		t.Fatalf("bad-spec submit: got %v, want a *ProtocolError with exit status 1", err)
	}
	if st, err := c.Stats(); err != nil || st.Submitted != 2 {
		t.Fatalf("engine saw %+v (err %v), want the graph's two rounds alone", st, err)
	}
}

// TestCloseDrainsConnectedClients: Close returns promptly with clients
// still connected — one idle between requests, one blocked in wait on
// a running job — and the waiting client is answered or disconnected
// rather than left hanging.
func TestCloseDrainsConnectedClients(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "supmrd.sock")
	srv, err := New(Config{Socket: sock, Engine: supmr.EngineConfig{Workers: 2}})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	idle, err := Dial(sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer idle.Close()
	waiter, err := Dial(sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer waiter.Close()
	// One round trip each, so both handlers are up and reading.
	if _, err := idle.List(); err != nil {
		t.Fatalf("list: %v", err)
	}
	// A slow job: simulated bandwidth stretches ingest to seconds.
	id, err := waiter.Submit(jobspec.Spec{App: "wordcount", Size: 8 << 20, ChunkBytes: 64 << 10, BW: 1 << 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	type waited struct {
		v   *JobView
		err error
	}
	done := make(chan waited, 1)
	go func() {
		v, err := waiter.Wait(id)
		done <- waited{v, err}
	}()
	// Give the wait request time to reach the server. The assertions
	// below hold whichever lands first, the wait or the shutdown.
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s with clients connected")
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	select {
	case w := <-done:
		if w.err == nil && w.v == nil {
			t.Error("wait answered without a job view")
		}
		if w.err != nil && !strings.Contains(w.err.Error(), "client:") {
			t.Errorf("wait failed with %v, want a response or a closed connection", w.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the waiting client was neither answered nor disconnected")
	}
	if _, err := idle.List(); err == nil {
		t.Error("the idle client's connection survived Close")
	}
}

// TestOversizedRequestAnswered: a request line over the limit gets one
// error response naming the limit before the server closes the
// connection.
func TestOversizedRequestAnswered(t *testing.T) {
	_, sock := startServer(t, supmr.EngineConfig{Workers: 1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	line := `{"op":"list","spec":{"app":"` + strings.Repeat("x", 2<<20) + `"}}` + "\n"
	// The server stops reading at the limit, so this write fails once
	// it hangs up; the response is read beside it.
	go conn.Write([]byte(line))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	got, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("no response to an oversized request: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("decode %q: %v", got, err)
	}
	if resp.OK || !strings.Contains(resp.Error, "1048576") {
		t.Fatalf("response = %+v, want an error naming the 1048576-byte limit", resp)
	}
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Error("connection still open after the oversized request")
	}
}

// TestClientSeesOversizedLimit: a request over the line limit fails the
// client's write once the server hangs up, and the client still returns
// the server's answer, naming the limit, not the broken pipe.
func TestClientSeesOversizedLimit(t *testing.T) {
	_, sock := startServer(t, supmr.EngineConfig{Workers: 1})
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Submit(jobspec.Spec{App: strings.Repeat("x", 2<<20)})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized submit: got %v, want *ProtocolError", err)
	}
	if !strings.Contains(pe.Message, "1048576-byte limit") {
		t.Fatalf("oversized submit: %q does not name the 1048576-byte limit", pe.Message)
	}
}
