// Package server is the supmrd job server: a long-running process
// owning one shared supmr.Engine, accepting job submissions over a
// local unix socket and multiplexing them onto the engine's substrate.
// The protocol is newline-delimited JSON — one Request per line, one
// Response per line — so the client side stays a thin wrapper around a
// net.Conn (see Client) and the wire format is inspectable with nc.
//
// Operations: submit (enqueue a jobspec.Spec or an internal/dag
// pipeline graph, returns a job id),
// status (one job's state), wait (block until a job finishes), cancel
// (abort a running or queued job), list (all jobs), stats (engine
// snapshot: admission occupancy, budget, freelist recycling, per-tenant
// rollup).
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"supmr"
	"supmr/internal/dag"
	"supmr/internal/jobspec"
)

// Request is one protocol message from client to server.
type Request struct {
	// Op is the operation: submit | status | wait | cancel | list | stats.
	Op string `json:"op"`
	// Spec is the job description (submit only).
	Spec *jobspec.Spec `json:"spec,omitempty"`
	// Graph, instead of Spec, is a multi-round pipeline (internal/dag):
	// the server runs it round by round on its engine, each round piping
	// its egressed output into the next in-process, and the job's result
	// is the final round's.
	Graph *dag.Graph `json:"graph,omitempty"`
	// ID addresses a job (status, wait, cancel).
	ID int64 `json:"id,omitempty"`
}

// Response is one protocol message from server to client.
type Response struct {
	OK    bool               `json:"ok"`
	Error string             `json:"error,omitempty"`
	ID    int64              `json:"id,omitempty"`
	Job   *JobView           `json:"job,omitempty"`
	Jobs  []JobView          `json:"jobs,omitempty"`
	Stats *supmr.EngineStats `json:"stats,omitempty"`
}

// ProtocolError is a server rejection surfaced by the Client: the
// response's message.
type ProtocolError struct {
	Message string
}

// Error renders the rejection.
func (e *ProtocolError) Error() string { return "server error: " + e.Message }

// Job states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobView is a job's externally visible state.
type JobView struct {
	ID     int64           `json:"id"`
	App    string          `json:"app"`
	Tenant string          `json:"tenant,omitempty"`
	State  string          `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result *jobspec.Result `json:"result,omitempty"`
}

// errCancelled is the cancellation cause a client cancel installs.
var errCancelled = errors.New("cancelled by client")

// job is the server-side record of one submission.
type job struct {
	id          int64
	app, tenant string
	cancel      context.CancelCauseFunc
	done        chan struct{} // closed when the run returns

	mu        sync.Mutex
	state     string
	err       string
	result    *jobspec.Result
	cancelled bool
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:     j.id,
		App:    j.app,
		Tenant: j.tenant,
		State:  j.state,
		Error:  j.err,
		Result: j.result,
	}
}

// Config configures a Server.
type Config struct {
	// Socket is the unix socket path to listen on. A stale socket file
	// left by a dead server is removed; a live listener makes New fail.
	Socket string
	// Engine sizes the shared substrate.
	Engine supmr.EngineConfig
}

// Server owns the engine and the job table.
type Server struct {
	eng *supmr.Engine
	ln  net.Listener

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	nextID int64
	jobs   map[int64]*job
	closed bool

	conns sync.WaitGroup // connection handlers
	runs  sync.WaitGroup // in-flight job runs
}

// New builds the engine and binds the socket.
func New(cfg Config) (*Server, error) {
	if cfg.Socket == "" {
		return nil, errors.New("server: empty socket path")
	}
	ln, err := net.Listen("unix", cfg.Socket)
	if err != nil {
		// A stale socket file from a dead server blocks the bind; probe
		// it and reclaim the path if nothing is listening.
		if conn, derr := net.DialTimeout("unix", cfg.Socket, 100*time.Millisecond); derr == nil {
			conn.Close()
			return nil, fmt.Errorf("server: %s already has a live server: %w", cfg.Socket, err)
		}
		if rerr := os.Remove(cfg.Socket); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return nil, err
		}
		if ln, err = net.Listen("unix", cfg.Socket); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		eng:    supmr.NewEngine(cfg.Engine),
		ln:     ln,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[int64]*job),
	}, nil
}

// Addr returns the bound socket path.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Close. It returns nil on a clean
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return nil
			default:
				return err
			}
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.handle(conn)
		}()
	}
}

// Close shuts the server down: stop accepting, cancel every running
// job, shut every connection's read side (an idle handler ends at once,
// one mid-request still answers: a blocked wait returns on the
// cancellation), wait for runs and connection handlers, close the
// engine. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.ln.Close()
	s.runs.Wait()
	s.conns.Wait()
	s.eng.Close()
}

// maxRequestLine caps one request line; a longer one is answered with
// an error and the connection closed.
const maxRequestLine = 1 << 20

// handle serves one connection: a sequence of JSON request lines.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// Shutdown ends the read loop at a request boundary: an idle Scan
	// sees EOF, while a request in flight still writes its response.
	defer context.AfterFunc(s.ctx, func() { conn.(*net.UnixConn).CloseRead() })()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), maxRequestLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.dispatch(req)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The connection closes either way; a failed write only loses the
		// explanation.
		_ = enc.Encode(&Response{Error: fmt.Sprintf("bad request: line exceeds the %d-byte limit", maxRequestLine)})
	}
}

func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case "submit":
		return s.submit(req)
	case "status":
		return s.status(req.ID)
	case "wait":
		return s.wait(req.ID)
	case "cancel":
		return s.cancelJob(req.ID)
	case "list":
		return s.list()
	case "stats":
		st := s.eng.Stats()
		return Response{OK: true, Stats: &st}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// submit validates the spec or graph, registers the job and starts its
// run. What Validate refuses is refused here, before it gets an id.
func (s *Server) submit(req Request) Response {
	j := &job{done: make(chan struct{}), state: StateRunning}
	var run func(ctx context.Context) (*jobspec.Result, error)
	switch {
	case req.Graph != nil:
		g := *req.Graph
		if err := g.Validate(); err != nil {
			return Response{Error: err.Error()}
		}
		apps := make([]string, len(g.Nodes))
		for i, n := range g.Nodes {
			apps[i] = n.Spec.App
		}
		j.app = strings.Join(apps, "+")
		run = func(ctx context.Context) (*jobspec.Result, error) {
			res, err := dag.Run(ctx, g, dag.Options{Engine: s.eng})
			if err != nil {
				return nil, err
			}
			return res.Final().Res, nil
		}
	case req.Spec != nil:
		spec := *req.Spec
		if err := spec.Validate(); err != nil {
			return Response{Error: err.Error()}
		}
		j.app, j.tenant = spec.App, spec.Tenant
		run = func(ctx context.Context) (*jobspec.Result, error) { return jobspec.Run(ctx, spec, s.eng) }
	default:
		return Response{Error: "submit: missing spec"}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{Error: supmr.ErrEngineClosed.Error()}
	}
	s.nextID++
	id := s.nextID
	jctx, cancel := context.WithCancelCause(s.ctx)
	j.id, j.cancel = id, cancel
	s.jobs[id] = j
	s.runs.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.runs.Done()
		defer cancel(nil)
		res, err := run(jctx)
		j.mu.Lock()
		defer j.mu.Unlock()
		defer close(j.done)
		if err != nil {
			if j.cancelled || errors.Is(err, errCancelled) {
				j.state = StateCancelled
			} else {
				j.state = StateFailed
			}
			j.err = err.Error()
			return
		}
		j.state = StateDone
		j.result = res
	}()
	return Response{OK: true, ID: id}
}

func (s *Server) lookup(id int64) (*job, Response) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, Response{Error: fmt.Sprintf("no job %d", id)}
	}
	return j, Response{}
}

func (s *Server) status(id int64) Response {
	j, errResp := s.lookup(id)
	if j == nil {
		return errResp
	}
	v := j.view()
	return Response{OK: true, ID: id, Job: &v}
}

// wait blocks until the job finishes (or the server shuts down), then
// reports its final state.
func (s *Server) wait(id int64) Response {
	j, errResp := s.lookup(id)
	if j == nil {
		return errResp
	}
	select {
	case <-j.done:
	case <-s.ctx.Done():
	}
	v := j.view()
	return Response{OK: true, ID: id, Job: &v}
}

// cancelJob aborts a running job; cancelling a finished job is a no-op
// that reports its final state.
func (s *Server) cancelJob(id int64) Response {
	j, errResp := s.lookup(id)
	if j == nil {
		return errResp
	}
	j.mu.Lock()
	if j.state == StateRunning {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel(errCancelled)
	v := j.view()
	return Response{OK: true, ID: id, Job: &v}
}

func (s *Server) list() Response {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	return Response{OK: true, Jobs: views}
}
