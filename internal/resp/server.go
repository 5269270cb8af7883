package resp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
	"mscfpq/internal/obs"
)

// FPDispatch is the failpoint at the head of command dispatch; tests
// arm it with a panic spec to prove a crashing handler costs one error
// reply, not the process.
const FPDispatch = "resp.dispatch"

var _ = fault.Declare(FPDispatch)

// maxInlineLen bounds one inline command line and one simple-string or
// error line (64 KiB, Redis's PROTO_INLINE_MAX_SIZE): a peer streaming
// bytes without a newline is refused instead of buffered without bound.
const maxInlineLen = 64 << 10

// Server serves the graph database over RESP.
type Server struct {
	DB     *gdb.DB
	Logger *log.Logger // nil = silent

	// MaxConns caps simultaneous connections; excess dials get an
	// error reply and an immediate close. 0 means unlimited. Set
	// before Serve.
	MaxConns int
	// IdleTimeout closes a connection that sends no command for this
	// long. 0 means no deadline. Set before Serve.
	IdleTimeout time.Duration

	// SyncHandler, when set, takes over a connection that issues the
	// SYNC command (the replication handshake): the handler owns the
	// socket until it returns and streams journal frames over it,
	// outside the request/reply loop. ctx is the server's base context,
	// cancelled on Close/drain-timeout so streams unwind with the
	// server. Set before Serve (typically by repl.Hub).
	SyncHandler func(ctx context.Context, args []string, conn net.Conn, r *bufio.Reader, w *bufio.Writer)

	// ReplInfo, when set, supplies the leading key:value lines of the
	// INFO replication section (role, offsets, per-replica rows). Nil
	// servers report role:leader with no replicas.
	ReplInfo func() []string

	// running counts commands currently executing, for overload
	// shedding against gdb.Policy.MaxConcurrent.
	running atomic.Int64

	mu       sync.Mutex
	ln       net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	draining bool                  // guarded by mu
	shutdown bool                  // guarded by mu

	// inflight counts commands between dispatch and reply flush; Shutdown
	// drains it before closing connections.
	inflight sync.WaitGroup
	// baseCtx parents every query's context; cancelled when a drain
	// times out (or on hard Close) to abort in-flight fixpoints.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// start anchors INFO's uptime_seconds line.
	start time.Time
}

// NewServer wraps a database.
func NewServer(db *gdb.DB) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{DB: db, conns: map[net.Conn]struct{}{}, baseCtx: ctx, baseCancel: cancel, start: time.Now()}
}

// Listen binds the address and returns the bound address (useful with
// ":0" for tests).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("resp: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections until Close. Call after Listen.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("resp: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown || s.draining
			s.mu.Unlock()
			if down {
				return nil
			}
			return err
		}
		s.mu.Lock()
		over := s.MaxConns > 0 && len(s.conns) >= s.MaxConns
		if !over {
			s.conns[conn] = struct{}{}
		}
		s.mu.Unlock()
		if over {
			obs.RespConnsRefused.Inc()
			go s.refuse(conn)
			continue
		}
		obs.RespConnsTotal.Inc()
		obs.RespConnsOpen.Add(1)
		go s.handle(conn)
	}
}

// refuse turns away a connection beyond MaxConns with an explicit
// error reply, like Redis's maxclients behaviour.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	//lint:ignore errdrop best-effort courtesy reply on a connection we refuse either way
	_ = Write(w, Errorf("max number of clients reached"))
	_ = w.Flush()
}

// Close stops the server immediately: in-flight queries are cancelled,
// the listener and every open connection are closed. Use Shutdown for a
// graceful stop that drains in-flight queries first.
func (s *Server) Close() {
	s.baseCancel()
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Shutdown stops the server gracefully: it stops accepting connections,
// waits for in-flight commands to finish and their replies to be
// flushed, then closes the remaining (idle) connections. If ctx expires
// before the drain completes, in-flight queries are cancelled through
// the execution governor, connections are force-closed, and the drain
// error is returned — the only case in which Shutdown is non-nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain timed out: abort the governed queries so their
		// goroutines unwind promptly, then force-close below.
		s.baseCancel()
		drainErr = fmt.Errorf("resp: shutdown drain: %w", ctx.Err())
	}

	s.mu.Lock()
	s.shutdown = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	return drainErr
}

func (s *Server) logf(format string, args ...any) {
	if s.Logger != nil {
		s.Logger.Printf(format, args...)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		// A panic on this connection's goroutine must cost only this
		// connection: log it and fall through to the close below.
		if r := recover(); r != nil {
			s.logf("resp: panic on %v: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		obs.RespConnsOpen.Add(-1)
	}()
	r := bufio.NewReader(conn)
	sent := &obs.CountingWriter{W: conn} // for resp.reply.bytes
	w := bufio.NewWriter(sent)
	for {
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		args, err := s.readCommand(r)
		if err != nil {
			var ne net.Error
			switch {
			case err == io.EOF, errors.Is(err, net.ErrClosed):
			case errors.As(err, &ne) && ne.Timeout():
				s.logf("resp: closing idle connection %v", conn.RemoteAddr())
			default:
				// Malformed input: tell the client why before closing,
				// like Redis's protocol errors.
				s.logf("resp: read: %v", err)
				//lint:ignore errdrop best-effort error reply on a connection we are about to close
				_ = Write(w, Errorf("protocol error: %v", err))
				_ = w.Flush()
			}
			return
		}
		if len(args) == 0 {
			//lint:ignore errdrop best-effort error reply on a connection we are about to close
			_ = Write(w, Errorf("protocol error"))
			_ = w.Flush()
			return
		}
		// SYNC hands the whole connection to the replication hub: the
		// stream is long-lived and push-only, so it lives outside the
		// inflight drain group (Shutdown would otherwise wait on it
		// forever) and is torn down through the base context instead.
		if strings.EqualFold(args[0], "SYNC") && s.SyncHandler != nil {
			// The stream writes on its own cadence; the idle read
			// deadline no longer applies. A deadline-clear failure
			// surfaces as a stream error inside the handler.
			_ = conn.SetReadDeadline(time.Time{})
			s.SyncHandler(s.baseCtx, args, conn, r, w)
			return
		}
		// Register the command with the drain group before dispatching;
		// commands arriving after a drain started are refused.
		s.mu.Lock()
		if s.draining || s.shutdown {
			s.mu.Unlock()
			//lint:ignore errdrop best-effort refusal on a draining server; the connection closes either way
			_ = Write(w, Errorf("server is shutting down"))
			_ = w.Flush()
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		rep, quit := s.dispatch(args)
		before := sent.N
		werr := rep.encode(w)
		if werr == nil {
			werr = w.Flush()
		}
		obs.RespReplyBytes.Add(sent.N - before)
		s.inflight.Done()
		if werr != nil || quit {
			return
		}
	}
}

// readCommand reads either a RESP array command or, like Redis, an
// inline command: a plain text line of space-separated words (handy for
// testing with netcat / telnet). Inline lines are bounded by
// maxInlineLen so a newline-less byte stream cannot grow server memory
// without bound.
func (s *Server) readCommand(r *bufio.Reader) ([]string, error) {
	b, err := r.Peek(1)
	if err != nil {
		return nil, err
	}
	if b[0] == byte(Array) {
		req, err := Read(r)
		if err != nil {
			return nil, err
		}
		return Strings(req)
	}
	for {
		line, err := readBoundedLine(r, maxInlineLen)
		if err != nil {
			return nil, err
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			return fields, nil
		}
		// Like Redis, empty inline lines are ignored.
	}
}

// readBoundedLine reads up to and including '\n', failing once the
// line exceeds limit bytes; at most limit+1 bytes are ever buffered.
func readBoundedLine(r *bufio.Reader, limit int) (string, error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(buf)+len(chunk) > limit {
			return "", fmt.Errorf("protocol line too large (> %d bytes)", limit)
		}
		buf = append(buf, chunk...)
		switch err {
		case nil:
			return string(buf), nil
		case bufio.ErrBufferFull:
			// Line continues past the reader's buffer; keep going.
		default:
			return "", err
		}
	}
}

// dispatch executes one command behind the server's failure bulkhead:
// a panic in any handler is recovered, logged, and turned into an
// error reply on just this command, and commands that execute real
// work are shed with a BUSY error once gdb.Policy.MaxConcurrent of
// them are already running — bounded degradation instead of unbounded
// queueing.
func (s *Server) dispatch(args []string) (rep reply, quit bool) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("resp: panic in %s handler: %v\n%s", strings.ToUpper(args[0]), r, debug.Stack())
			rep, quit = Errorf("internal error: command %s failed: %v", strings.ToUpper(args[0]), r), false
		}
	}()
	if err := fault.Inject(FPDispatch); err != nil {
		return Errorf("%v", err), false
	}
	obs.RespCommands.Inc()
	cmdStart := time.Now()
	defer func() {
		obs.RespCmdLatency(cmdMetricName(args[0])).Observe(time.Since(cmdStart).Microseconds())
	}()
	if !lightCommand(args[0]) {
		if limit := s.DB.Policy().MaxConcurrent; limit > 0 {
			if s.running.Add(1) > int64(limit) {
				s.running.Add(-1)
				obs.RespBusyShed.Inc()
				return Busyf("server is overloaded (%d commands running), try again later", limit), false
			}
			defer s.running.Add(-1)
		}
	}
	return s.execute(args)
}

// cmdMetricName normalizes a client-supplied command word into the
// fixed label set of the per-command latency histograms; anything
// outside the command table collapses to "other" so unknown commands
// cannot grow the metrics registry without bound.
func cmdMetricName(cmd string) string {
	c := strings.ToLower(cmd)
	switch c {
	case "ping", "echo", "quit", "command", "info", "slowlog",
		"replconf", "sync",
		"graph.query", "graph.explain", "graph.stats", "graph.dump",
		"graph.restore", "graph.profile", "graph.save", "graph.delete",
		"graph.list":
		return c
	}
	return "other"
}

// lightCommand reports commands cheap enough to bypass overload
// shedding, so health checks and diagnostics (INFO, SLOWLOG) keep
// answering under load — exactly when they are most needed.
func lightCommand(cmd string) bool {
	switch strings.ToUpper(cmd) {
	case "PING", "ECHO", "QUIT", "COMMAND", "INFO", "SLOWLOG", "REPLCONF":
		return true
	}
	return false
}

// execute runs one command.
func (s *Server) execute(args []string) (rep reply, quit bool) {
	cmd := strings.ToUpper(args[0])
	switch cmd {
	case "PING":
		if len(args) > 1 {
			return Bulk(args[1]), false
		}
		return Simple("PONG"), false
	case "ECHO":
		if len(args) != 2 {
			return Errorf("wrong number of arguments for ECHO"), false
		}
		return Bulk(args[1]), false
	case "QUIT":
		return OK(), true
	case "COMMAND":
		return Arr(), false
	case "REPLCONF":
		// Accepted for wire compatibility with Redis replicas; the
		// stream state this server needs travels in SYNC itself.
		return OK(), false
	case "SYNC":
		// Reached only when no SyncHandler is installed (handle routes
		// the command to the hub before dispatch otherwise).
		return Errorf("replication is not enabled on this server"), false
	case "INFO":
		if len(args) > 2 {
			return Errorf("usage: INFO [section]"), false
		}
		section := ""
		if len(args) == 2 {
			section = strings.ToLower(args[1])
		}
		return s.info(section), false
	case "SLOWLOG":
		return s.slowlog(args), false
	case "GRAPH.QUERY":
		if len(args) != 3 {
			return Errorf("usage: GRAPH.QUERY <graph> <query>"), false
		}
		res, err := s.DB.QueryCells(s.baseCtx, args[1], args[2])
		if err != nil {
			return Errorf("%v", err), false
		}
		return queryReply{res}, false
	case "GRAPH.EXPLAIN":
		if len(args) != 3 {
			return Errorf("usage: GRAPH.EXPLAIN <graph> <query>"), false
		}
		text, err := s.DB.Explain(args[1], args[2])
		if err != nil {
			return Errorf("%v", err), false
		}
		return bulks(strings.Split(strings.TrimRight(text, "\n"), "\n")), false
	case "GRAPH.STATS":
		if len(args) != 2 {
			return Errorf("usage: GRAPH.STATS <graph>"), false
		}
		lines, err := s.DB.Stats(args[1])
		if err != nil {
			return Errorf("%v", err), false
		}
		return bulks(lines), false
	case "GRAPH.DUMP":
		if len(args) != 2 {
			return Errorf("usage: GRAPH.DUMP <graph>"), false
		}
		dump, err := s.DB.Dump(args[1])
		if err != nil {
			return Errorf("%v", err), false
		}
		return Bulk(dump), false
	case "GRAPH.RESTORE":
		if len(args) != 3 {
			return Errorf("usage: GRAPH.RESTORE <graph> <dump>"), false
		}
		if err := s.DB.Restore(args[1], args[2]); err != nil {
			return Errorf("%v", err), false
		}
		return OK(), false
	case "GRAPH.PROFILE":
		if len(args) != 3 {
			return Errorf("usage: GRAPH.PROFILE <graph> <query>"), false
		}
		// GRAPH.QUERY of the statement with the PROFILE prefix, answered
		// by the span tree its statistics section would carry.
		res, err := s.DB.QueryCells(s.baseCtx, args[1], "PROFILE "+args[2])
		if err != nil {
			return Errorf("%v", err), false
		}
		return bulks(res.Profile), false
	case "GRAPH.SAVE":
		if len(args) != 1 {
			return Errorf("usage: GRAPH.SAVE"), false
		}
		if err := s.DB.Save(); err != nil {
			return Errorf("%v", err), false
		}
		return OK(), false
	case "GRAPH.DELETE":
		if len(args) != 2 {
			return Errorf("usage: GRAPH.DELETE <graph>"), false
		}
		ok, err := s.DB.Delete(args[1])
		if err != nil {
			return Errorf("%v", err), false
		}
		if !ok {
			return Errorf("graph %q does not exist", args[1]), false
		}
		return OK(), false
	case "GRAPH.LIST":
		return bulks(s.DB.List()), false
	default:
		return Errorf("unknown command '%s'", args[0]), false
	}
}

// bulks is the reply of one bulk string per line.
func bulks(lines []string) Value {
	vals := make([]Value, len(lines))
	for i, l := range lines {
		vals[i] = Bulk(l)
	}
	return Arr(vals...)
}

// infoSectionNames lists the INFO sections in reply order.
var infoSectionNames = []string{"server", "gdb", "cache", "kernels", "durability", "replication"}

// infoSection maps an instrument name to its INFO section by the first
// dotted component. Anything outside the known layers (resp.*,
// governor.*, future additions) lands in the server section.
func infoSection(key string) string {
	prefix, _, _ := strings.Cut(key, ".")
	switch prefix {
	case obs.LayerKernel:
		return "kernels"
	case obs.LayerGdb:
		return "gdb"
	case obs.LayerCache:
		return "cache"
	case obs.LayerDur:
		return "durability"
	case obs.LayerRepl:
		return "replication"
	}
	return "server"
}

// info renders the INFO reply: Redis-style "# section" headers over
// sorted key:value lines built from a metrics snapshot, plus a few
// static server facts. An empty section argument selects every
// section; an unknown one yields an empty bulk string, like Redis.
func (s *Server) info(section string) Value {
	snap := obs.Default.Snapshot()
	repl := []string{"role:leader"}
	if s.ReplInfo != nil {
		repl = s.ReplInfo()
	}
	lines := map[string][]string{
		"server": {
			fmt.Sprintf("uptime_seconds:%d", int64(time.Since(s.start).Seconds())),
			fmt.Sprintf("graphs:%d", len(s.DB.List())),
		},
		"replication": repl,
	}
	// Snapshot.Keys is sorted, so each section's metric lines come out
	// in one deterministic order.
	for _, k := range snap.Keys() {
		sec := infoSection(k)
		lines[sec] = append(lines[sec], fmt.Sprintf("%s:%d", k, snap[k]))
	}
	var b strings.Builder
	for _, name := range infoSectionNames {
		if section != "" && section != name {
			continue
		}
		b.WriteString("# " + name + "\n")
		for _, l := range lines[name] {
			b.WriteString(l + "\n")
		}
		b.WriteString("\n")
	}
	return Bulk(b.String())
}

// slowlog implements SLOWLOG GET [n] | RESET | LEN against the
// database's slow-query ring. GET entries are newest-first, each a
// fixed seven-element array: id, unix timestamp, duration in
// microseconds, the command args (GRAPH.QUERY form), status, error
// text (empty bulk when none), and governed work spent.
func (s *Server) slowlog(args []string) Value {
	if len(args) < 2 {
		return Errorf("usage: SLOWLOG GET [count] | RESET | LEN")
	}
	sl := s.DB.SlowLog()
	switch strings.ToUpper(args[1]) {
	case "GET":
		n := 0
		if len(args) == 3 {
			v, err := strconv.Atoi(args[2])
			if err != nil || v < 0 {
				return Errorf("SLOWLOG GET count must be a non-negative integer")
			}
			n = v
		} else if len(args) > 3 {
			return Errorf("usage: SLOWLOG GET [count]")
		}
		entries := sl.Entries(n)
		out := make([]Value, len(entries))
		for i, e := range entries {
			out[i] = Arr(
				Int(e.ID),
				Int(e.Time.Unix()),
				Int(e.Duration.Microseconds()),
				Arr(Bulk("GRAPH.QUERY"), Bulk(e.Graph), Bulk(e.Query)),
				Bulk(e.Status),
				Bulk(e.Err),
				Int(e.Work),
			)
		}
		return Arr(out...)
	case "RESET":
		sl.Reset()
		return OK()
	case "LEN":
		return Int(int64(sl.Len()))
	}
	return Errorf("unknown SLOWLOG subcommand '%s'", args[1])
}

// reply is a command's answer, ready to encode itself onto the
// connection: a Value tree, or a query result that never becomes one.
type reply interface {
	encode(w *bufio.Writer) error
}

func (v Value) encode(w *bufio.Writer) error { return Write(w, v) }

// queryReply renders a query result the way RedisGraph does: a
// three-element array of header, rows, and statistics. Each row is
// written from its span of the result's cells (gdb.DB.QueryCells), and
// cells go into the connection's buffer as digits, unallocated
// (DESIGN.md §15).
type queryReply struct{ res *gdb.QueryResult }

func (q queryReply) encode(w *bufio.Writer) error {
	res := q.res
	n, width := res.NumRows, len(res.Columns)
	obs.RespReplyRows.Add(int64(n))
	writeInt(w, Array, 3)
	writeInt(w, Array, int64(len(res.Columns)))
	for _, c := range res.Columns {
		writeBulk(w, c)
	}
	writeInt(w, Array, int64(n))
	for i := range n {
		row := res.Cells[i*width : (i+1)*width]
		b := appendInt(room(w, (1+len(row))*maxIntLine), Array, int64(len(row)))
		for _, v := range row {
			b = appendInt(b, Integer, v)
		}
		w.Write(b)
	}
	// A PROFILE'd query carries its span tree; it rides in the stats
	// section so the reply keeps the three-element RedisGraph shape.
	writeInt(w, Array, int64(3+len(res.Profile)))
	writeBulk(w, "Nodes created: "+strconv.Itoa(res.NodesCreated))
	writeBulk(w, "Relationships created: "+strconv.Itoa(res.EdgesCreated))
	writeBulk(w, "Rows returned: "+strconv.Itoa(n))
	for _, l := range res.Profile {
		writeBulk(w, l)
	}
	_, err := w.Write(nil) // the first write error, if any: see Write
	return err
}
