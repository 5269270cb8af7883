package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"syscall"
	"time"
)

// ServerError is an error reply from the server, code included
// ("ERR ...", "BUSY ...").
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "resp: server: " + e.Msg }

// Transient reports whether the reply invites a retry — the BUSY
// overload-shedding refusal.
func (e *ServerError) Transient() bool { return strings.HasPrefix(e.Msg, "BUSY") }

// IsTransient reports whether err is a server reply worth retrying
// with backoff (see (*Client).DoRetry).
func IsTransient(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Transient()
}

// IsBrokenConn reports whether err looks like a connection that died
// under the client — EOF mid-reply, a reset or closed socket, a broken
// pipe — rather than a reply the server chose to send. DoRetry treats
// these as transient and redials: a server restart (failover,
// redeploy) otherwise fails every pooled client's next call.
func IsBrokenConn(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne *net.OpError
	return errors.As(err, &ne)
}

// LeaderHint extracts the leader address from a replica's READONLY
// rejection ("READONLY replica of <addr>; ..."), so a client that
// wrote to a follower can re-route.
func LeaderHint(err error) (string, bool) {
	var se *ServerError
	if !errors.As(err, &se) {
		return "", false
	}
	rest, ok := strings.CutPrefix(se.Msg, "READONLY replica of ")
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, ";")
	addr = strings.TrimSpace(addr)
	return addr, addr != ""
}

// Client is a minimal RESP client for the graph server. Not safe for
// concurrent use; open one client per goroutine.
type Client struct {
	addr    string
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	scratch []Value // room a long reply array grows in before its one copy; all zero between calls
}

// clientReadBuf is the client's read buffer: a 6000-row reply (95 KB)
// arrives in three windows, not two dozen.
const clientReadBuf = 32 << 10

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("resp: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, conn: conn, r: bufio.NewReaderSize(conn, clientReadBuf), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// redial replaces a broken connection with a fresh one to the same
// address.
func (c *Client) redial() error {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("resp: redial %s: %w", c.addr, err)
	}
	// Best-effort close of the dead socket; it already failed.
	_ = c.conn.Close()
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, clientReadBuf)
	c.w = bufio.NewWriter(conn)
	return nil
}

// Do sends a command and returns the raw reply. An error reply becomes
// a Go error.
func (c *Client) Do(args ...string) (Value, error) {
	writeInt(c.w, Array, int64(len(args)))
	for _, a := range args {
		writeBulk(c.w, a)
	}
	if err := c.w.Flush(); err != nil {
		return Value{}, err
	}
	reply, err := decode(c.r, &c.scratch, maxReplyArrayLen)
	if err != nil {
		return Value{}, err
	}
	if reply.Kind == ErrorString {
		return Value{}, &ServerError{Msg: reply.Str}
	}
	return reply, nil
}

// DoRetry sends a command like Do but retries transient failures with
// jittered exponential backoff, up to attempts sends in total. Two
// failure shapes are transient: the server's BUSY overload refusal,
// and a connection that broke under the call (EOF, reset, closed
// socket — e.g. a server restart), which is retried over a fresh dial.
// Other errors — protocol failures, ordinary ERR replies — return
// immediately. Caveat: a broken-connection retry re-sends the command,
// so a non-idempotent write that died after reaching the server can
// apply twice; route such writes through Do if that matters.
func (c *Client) DoRetry(attempts int, args ...string) (Value, error) {
	backoff := 2 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		v, err := c.Do(args...)
		if err == nil || attempt >= attempts {
			return v, err
		}
		switch {
		case IsTransient(err):
		case IsBrokenConn(err):
			if rerr := c.redial(); rerr != nil {
				// The server may still be coming back up; wait out the
				// backoff and try dialing again on the next attempt.
				if attempt+1 >= attempts {
					return Value{}, rerr
				}
			}
		default:
			return v, err
		}
		// Full jitter: a uniform draw over the window keeps shed
		// clients from re-arriving in lockstep.
		time.Sleep(time.Duration(rand.Int64N(int64(backoff))) + backoff/2)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if v.Str != "PONG" {
		return fmt.Errorf("resp: unexpected PING reply %q", v.Str)
	}
	return nil
}

// QueryReply is a decoded GRAPH.QUERY response.
type QueryReply struct {
	Columns []string
	Rows    [][]int64
	Stats   []string
}

// GraphQuery runs GRAPH.QUERY and decodes the reply.
func (c *Client) GraphQuery(graph, query string) (*QueryReply, error) {
	v, err := c.Do("GRAPH.QUERY", graph, query)
	if err != nil {
		return nil, err
	}
	if v.Kind != Array || len(v.Array) != 3 {
		return nil, fmt.Errorf("resp: malformed GRAPH.QUERY reply")
	}
	out := &QueryReply{}
	for _, h := range v.Array[0].Array {
		out.Columns = append(out.Columns, h.Str)
	}
	for _, row := range v.Array[1].Array {
		var cells []int64
		for _, cell := range row.Array {
			if cell.Kind != Integer {
				return nil, fmt.Errorf("resp: non-integer result cell")
			}
			cells = append(cells, cell.Int)
		}
		out.Rows = append(out.Rows, cells)
	}
	for _, s := range v.Array[2].Array {
		out.Stats = append(out.Stats, s.Str)
	}
	return out, nil
}

// GraphExplain runs GRAPH.EXPLAIN and returns the plan lines.
func (c *Client) GraphExplain(graph, query string) ([]string, error) {
	v, err := c.Do("GRAPH.EXPLAIN", graph, query)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range v.Array {
		out = append(out, l.Str)
	}
	return out, nil
}

// GraphProfile runs GRAPH.PROFILE and returns the query's rendered span
// tree, the lines GraphQuery of the PROFILE-prefixed query carries
// after its statistics.
func (c *Client) GraphProfile(graph, query string) ([]string, error) {
	v, err := c.Do("GRAPH.PROFILE", graph, query)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range v.Array {
		out = append(out, l.Str)
	}
	return out, nil
}

// GraphDelete runs GRAPH.DELETE.
func (c *Client) GraphDelete(graph string) error {
	_, err := c.Do("GRAPH.DELETE", graph)
	return err
}

// GraphSave runs GRAPH.SAVE, cutting a snapshot on a durable server.
func (c *Client) GraphSave() error {
	_, err := c.Do("GRAPH.SAVE")
	return err
}

// GraphList runs GRAPH.LIST.
func (c *Client) GraphList() ([]string, error) {
	v, err := c.Do("GRAPH.LIST")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range v.Array {
		out = append(out, l.Str)
	}
	return out, nil
}
