package resp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
)

// The hostile-client suite: malformed, oversized, and half-finished
// input must cost the server at most the offending connection — never
// memory, never the process — and overload must shed with an explicit
// retryable refusal instead of queueing without bound.

// startConfiguredServer is startServerWith with a configuration hook
// that runs before Serve (MaxConns and IdleTimeout must be set then).
func startConfiguredServer(t *testing.T, db *gdb.DB, cfg func(*Server)) (*Server, string) {
	t.Helper()
	srv := NewServer(db)
	if cfg != nil {
		cfg(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// dialRaw opens a plain TCP connection with a read deadline so a
// misbehaving server fails the test instead of hanging it.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// mustServeHealthy asserts the server still answers fresh connections.
func mustServeHealthy(t *testing.T, addr string) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after hostile input: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after hostile input: %v", err)
	}
}

// infiniteReader yields an endless stream of one byte, counting what
// the consumer actually pulled.
type infiniteReader struct {
	b    byte
	read int
}

func (r *infiniteReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
	}
	r.read += len(p)
	return len(p), nil
}

// TestReadBoundedLineBoundsMemory is the regression test for the
// unbounded inline path: against an endless newline-less stream the
// reader must fail promptly, having consumed only limit-plus-one-buffer
// bytes — not grow until the process dies.
func TestReadBoundedLineBoundsMemory(t *testing.T) {
	src := &infiniteReader{b: 'x'}
	br := bufio.NewReader(src)
	_, err := readBoundedLine(br, maxInlineLen)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("readBoundedLine on endless stream = %v, want too-large error", err)
	}
	if limit := maxInlineLen + 64<<10; src.read > limit {
		t.Fatalf("bounded line read consumed %d bytes from the stream, want <= %d", src.read, limit)
	}
}

// TestReadBoundedLinesOfProtocol is the same guarantee for the protocol
// proper: a length, integer, simple-string or error line that never
// ends is refused after at most one bounded line's worth of input,
// wherever in a command it starts.
func TestReadBoundedLinesOfProtocol(t *testing.T) {
	for _, prefix := range []string{"*1\r\n$", "*2\r\n$4\r\nPING\r\n:", "*", "$", ":", "+", "-"} {
		src := &infiniteReader{b: '7'}
		_, err := Read(bufio.NewReader(io.MultiReader(strings.NewReader(prefix), src)))
		if err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("Read(%q + endless digits) = %v, want too-large error", prefix, err)
		}
		if limit := maxInlineLen + 64<<10; src.read > limit {
			t.Errorf("Read(%q + endless digits) consumed %d bytes, want <= %d", prefix, src.read, limit)
		}
	}
}

// TestHostileUnterminatedLengthLine sends the server a bulk length that
// never ends: it must answer with a protocol error and hang up, not
// buffer the digits.
func TestHostileUnterminatedLengthLine(t *testing.T) {
	_, addr := startServerWith(t, nil)
	conn := dialRaw(t, addr)
	// The server may close mid-write; the write error is part of the scenario.
	_, _ = conn.Write(append([]byte("*1\r\n$"), bytes.Repeat([]byte{'9'}, 256<<10)...))
	reply, _ := io.ReadAll(conn)
	if len(reply) > 0 && !strings.Contains(string(reply), "protocol error") {
		t.Fatalf("reply to an endless bulk length = %q, want protocol error", reply)
	}
	mustServeHealthy(t, addr)
}

// TestHostileCRLFInErrorReply: an error message that echoes a client's
// argument must not let that argument end the line. Before Write
// replaced CR and LF with spaces, the bytes after the smuggled CRLF
// were read as the next command's reply.
func TestHostileCRLFInErrorReply(t *testing.T) {
	_, addr := startServerWith(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do("SLOWLOG", "x'\r\n+FAKE\r\n")
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "x'  +FAKE") {
		t.Fatalf("SLOWLOG with CRLF in its argument = %v, want one error naming the argument with spaces for CR and LF", err)
	}
	if v, err := c.Do("ECHO", "in sync"); err != nil || v.Str != "in sync" {
		t.Fatalf("next reply on the connection = %+v, %v; the stream lost sync", v, err)
	}
}

func TestHostileOversizedInlineLine(t *testing.T) {
	_, addr := startServerWith(t, nil)
	conn := dialRaw(t, addr)
	// A newline-less stream just past the inline bound. The server must
	// refuse and close; depending on close timing the error reply may
	// be lost to a TCP reset, so health of the next connection is the
	// hard assertion.
	payload := bytes.Repeat([]byte{'x'}, maxInlineLen+4096)
	// The server may close mid-write; the write error is part of the scenario.
	_, _ = conn.Write(payload)
	reply, _ := io.ReadAll(conn)
	if len(reply) > 0 && !strings.Contains(string(reply), "protocol error") {
		t.Fatalf("reply to oversized inline = %q, want protocol error", reply)
	}
	mustServeHealthy(t, addr)
}

func TestHostileOversizedBulkLength(t *testing.T) {
	_, addr := startServerWith(t, nil)
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte("*1\r\n$999999999\r\n")); err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(conn)
	if !strings.Contains(string(reply), "protocol error") || !strings.Contains(string(reply), "bulk length") {
		t.Fatalf("reply to hostile bulk length = %q", reply)
	}
	mustServeHealthy(t, addr)
}

func TestHostileOversizedArrayLength(t *testing.T) {
	_, addr := startServerWith(t, nil)
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte("*99999999\r\n")); err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(conn)
	if !strings.Contains(string(reply), "protocol error") || !strings.Contains(string(reply), "array length") {
		t.Fatalf("reply to hostile array length = %q", reply)
	}
	mustServeHealthy(t, addr)
}

func TestHostileMidCommandDisconnect(t *testing.T) {
	_, addr := startServerWith(t, nil)
	conn := dialRaw(t, addr)
	// Promise two elements, deliver one, hang up.
	if _, err := conn.Write([]byte("*2\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	mustServeHealthy(t, addr)
}

// TestDispatchPanicIsOneErrorReply arms the dispatch failpoint with a
// panic: the crashing command costs exactly one error reply, and the
// same connection keeps working.
func TestDispatchPanicIsOneErrorReply(t *testing.T) {
	defer fault.Reset()
	_, addr := startServerWith(t, map[string]*graph.Graph{"g": twoCycle(4)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	defer fault.Enable(FPDispatch, fault.Spec{Panic: "chaos: handler exploded", Times: 1})()
	_, err = c.Do("GRAPH.LIST")
	if err == nil || !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), "GRAPH.LIST") {
		t.Fatalf("panicking dispatch returned %v, want internal-error reply naming the command", err)
	}
	// The very same connection survives the handler panic.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping on the same connection after panic: %v", err)
	}
	if r, err := c.GraphQuery("g", anbnQuery); err != nil || len(r.Rows) == 0 {
		t.Fatalf("query after panic = (%v, %v)", r, err)
	}
}

func TestMaxConnsRefusesExcess(t *testing.T) {
	_, addr := startConfiguredServer(t, gdb.New(), func(s *Server) { s.MaxConns = 1 })
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil { // round-trip: c1 is registered
		t.Fatal(err)
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err == nil || !strings.Contains(err.Error(), "max number of clients") {
		t.Fatalf("excess connection got %v, want maxclients refusal", err)
	}

	// Freeing the slot readmits new clients.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr)
		if err == nil {
			err = c3.Ping()
			c3.Close()
			if err == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIdleTimeoutClosesConnection(t *testing.T) {
	_, addr := startConfiguredServer(t, gdb.New(), func(s *Server) { s.IdleTimeout = 100 * time.Millisecond })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on a connection the idle deadline should have closed")
	}
	mustServeHealthy(t, addr)
}

// TestBusySheddingAndRetry drives the overload path end to end: with
// MaxConcurrent 1 and a slow query holding the slot, a second command
// is refused with the retryable BUSY error, PING still answers (health
// checks bypass shedding), and DoRetry's backoff eventually lands the
// refused command once the slot frees.
func TestBusySheddingAndRetry(t *testing.T) {
	srv, addr := startServerWith(t, map[string]*graph.Graph{"g": twoCycle(150)})
	srv.DB.SetPolicy(gdb.Policy{MaxConcurrent: 1})

	slow, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowDone := make(chan error, 1)
	go func() {
		// The TIMEOUT clause bounds the slot-holding query so the test
		// ends promptly (especially under -race) once shedding and the
		// retry have been observed.
		_, err := slow.GraphQuery("g", anbnQuery+` TIMEOUT 5000`)
		slowDone <- err
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Observe at least one BUSY refusal while the slot is held.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Do("GRAPH.LIST")
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("refusal is not transient: %v", err)
			}
			if !strings.Contains(err.Error(), "BUSY") {
				t.Fatalf("refusal lacks the BUSY code: %v", err)
			}
			break
		}
		select {
		case serr := <-slowDone:
			t.Fatalf("slow query finished before shedding was observed (err=%v); grow the graph", serr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no BUSY refusal within 10s")
		}
	}

	// Health checks bypass shedding.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping during overload: %v", err)
	}

	// Backoff retry rides out the overload.
	if _, err := c.DoRetry(200, "GRAPH.LIST"); err != nil {
		t.Fatalf("DoRetry never landed: %v", err)
	}
	if err := <-slowDone; err != nil && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("slow query failed: %v", err)
	}
}

// TestShutdownRacesSaveAndJournal races graceful Shutdown against
// in-flight mutating queries and explicit GRAPH.SAVE snapshots on a
// durable store (run under -race). Whatever interleaving happens, the
// data directory must recover cleanly afterwards.
func TestShutdownRacesSaveAndJournal(t *testing.T) {
	dir := t.TempDir()
	db, err := gdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startConfiguredServer(t, db, nil)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for {
				if _, err := c.GraphQuery("race", `CREATE (a:N)-[:e]->(b:N)`); err != nil {
					return // shutdown refusal or closed connection ends the loop
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			if _, err := c.Do("GRAPH.SAVE"); err != nil {
				return
			}
		}
	}()

	time.Sleep(150 * time.Millisecond) // let the workload overlap snapshots
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during workload = %v", err)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("Close after shutdown: %v", err)
	}

	db2, err := gdb.Open(dir)
	if err != nil {
		t.Fatalf("recovery after racing shutdown: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}
