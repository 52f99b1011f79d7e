package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"supmr"
	"supmr/internal/dag"
	"supmr/internal/jobspec"
)

// Client is the thin supmrd protocol client the `supmr submit` family
// of subcommands uses: one connection, serialized request/response
// pairs. Safe for concurrent use, but a blocking Wait holds the
// connection until the job finishes — use one Client per concurrent
// waiter.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a supmrd unix socket.
func Dial(socket string) (*Client, error) {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", socket, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request line and decodes one response line.
func (c *Client) roundTrip(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, werr := c.conn.Write(append(payload, '\n')); werr != nil {
		// A server that refuses a request outright (a line over its size
		// limit) answers and hangs up before reading the rest, so the
		// write fails; the answer it sent says why.
		var pe *ProtocolError
		if _, err := c.receive(); errors.As(err, &pe) {
			return nil, pe
		}
		return nil, fmt.Errorf("client: send: %w", werr)
	}
	return c.receive()
}

// receive decodes one response line, a rejection as a *ProtocolError.
func (c *Client) receive() (*Response, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("client: receive: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("client: bad response: %w", err)
	}
	if !resp.OK {
		return nil, &ProtocolError{Message: resp.Error}
	}
	return &resp, nil
}

// SubmitGraph enqueues a pipeline graph as one job and returns its
// server-assigned id; the job's result is the final round's.
func (c *Client) SubmitGraph(g dag.Graph) (int64, error) {
	resp, err := c.roundTrip(Request{Op: "submit", Graph: &g})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Submit enqueues a job and returns its server-assigned id.
func (c *Client) Submit(spec jobspec.Spec) (int64, error) {
	resp, err := c.roundTrip(Request{Op: "submit", Spec: &spec})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Status reports one job's current state.
func (c *Client) Status(id int64) (*JobView, error) {
	resp, err := c.roundTrip(Request{Op: "status", ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// Wait blocks until the job finishes and returns its final state.
func (c *Client) Wait(id int64) (*JobView, error) {
	resp, err := c.roundTrip(Request{Op: "wait", ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// Cancel aborts a running job and reports its state.
func (c *Client) Cancel(id int64) (*JobView, error) {
	resp, err := c.roundTrip(Request{Op: "cancel", ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// List returns every job the server knows, oldest first.
func (c *Client) List() ([]JobView, error) {
	resp, err := c.roundTrip(Request{Op: "list"})
	if err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Stats snapshots the server's engine.
func (c *Client) Stats() (*supmr.EngineStats, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}
