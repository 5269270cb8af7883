package resp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
)

// twoCycle builds the a^n b^n stress input: a cycle of p a-edges and a
// cycle of p-1 b-edges sharing vertex 0. The an^bn path query over it
// runs a fixpoint of many rounds.
func twoCycle(p int) *graph.Graph {
	g := graph.New(2 * p)
	for i := 0; i < p; i++ {
		g.AddEdge(i, "a", (i+1)%p)
	}
	prev := 0
	for i := 0; i < p-2; i++ {
		g.AddEdge(prev, "b", p+i)
		prev = p + i
	}
	g.AddEdge(prev, "b", 0)
	return g
}

const anbnQuery = `
	PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
	MATCH (v)-/ ~S /->(to) RETURN v, to`

// startServerWith serves the given graphs and returns the address.
func startServerWith(t *testing.T, graphs map[string]*graph.Graph) (*Server, string) {
	t.Helper()
	db := gdb.New()
	for name, g := range graphs {
		db.AddGraph(name, g)
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// TestServerQueryTimeout is the acceptance check of the governance
// stack end to end: a GRAPH.QUERY with a 1ms TIMEOUT clause against the
// geospecies analog comes back as a prompt timeout error, and the
// server keeps answering afterwards.
func TestServerQueryTimeout(t *testing.T) {
	spec, err := dataset.ByName("geospecies")
	if err != nil {
		t.Fatal(err)
	}
	geo := dataset.Generate(dataset.Scaled(spec, 0.04))
	_, addr := startServerWith(t, map[string]*graph.Graph{
		"geo":    geo,
		"cycles": twoCycle(4),
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const geoQuery = `
		PATH PATTERN S = ()-/ [:broaderTransitive ~S :broaderTransitive_r] | [:broaderTransitive :broaderTransitive_r] /->()
		MATCH (v)-/ ~S /->(to) RETURN v, to TIMEOUT 1`
	start := time.Now()
	_, err = c.GraphQuery("geo", geoQuery)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("1ms-timeout query succeeded")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("timed-out query took %v, want < 100ms", elapsed)
	}

	// The server (and this very connection) must remain healthy.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after timeout: %v", err)
	}
	reply, err := c.GraphQuery("cycles", anbnQuery)
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	if len(reply.Rows) == 0 {
		t.Fatal("no rows from healthy query")
	}
}

// holdNextCommand arms the dispatch failpoint to hold the next command
// for d inside the server's drain group, so a drain test has a command
// in flight however fast the query itself runs. The returned function
// waits until that command is being held.
func holdNextCommand(t *testing.T, d time.Duration) (waitHeld func()) {
	t.Helper()
	t.Cleanup(fault.Enable(FPDispatch, fault.Spec{Delay: d, Times: 1}))
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fault.Hits(FPDispatch) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no command reached dispatch")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestServerShutdownDrains checks the graceful path: a query in flight
// when Shutdown begins still completes and its reply is delivered, new
// work is refused, and Shutdown returns nil.
func TestServerShutdownDrains(t *testing.T) {
	srv, addr := startServerWith(t, map[string]*graph.Graph{"g": twoCycle(100)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type reply struct {
		rows int
		at   time.Time
		err  error
	}
	waitHeld := holdNextCommand(t, 300*time.Millisecond)
	inflight := make(chan reply, 1)
	go func() {
		r, err := c.GraphQuery("g", anbnQuery)
		if err != nil {
			inflight <- reply{err: err}
			return
		}
		inflight <- reply{rows: len(r.Rows), at: time.Now()}
	}()
	waitHeld()

	began := time.Now()
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight query aborted during graceful drain: %v", got.err)
	}
	if got.rows == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	if !got.at.After(began) {
		t.Fatal("the reply came before Shutdown began: nothing was in flight")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	// The listener is gone: new connections fail outright.
	if c2, err := Dial(addr); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
}

// TestServerShutdownDrainTimeout checks the force path: when the drain
// deadline expires with a query still running, the query is cancelled
// through the governor and Shutdown reports the drain error.
func TestServerShutdownDrainTimeout(t *testing.T) {
	srv, addr := startServerWith(t, map[string]*graph.Graph{"g": twoCycle(200)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitHeld := holdNextCommand(t, 500*time.Millisecond)
	inflight := make(chan error, 1)
	go func() {
		_, err := c.GraphQuery("g", anbnQuery)
		inflight <- err
	}()
	waitHeld()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want drain deadline error", err)
	}
	// The in-flight query was aborted: either an error reply made it out
	// or the connection was closed under it; it must not hang.
	select {
	case qerr := <-inflight:
		if qerr == nil {
			t.Fatal("aborted query reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query still running after forced shutdown")
	}
}

// TestServerRefusesDuringDrain checks that commands arriving on an
// existing connection after a drain started get an explicit refusal.
func TestServerRefusesDuringDrain(t *testing.T) {
	srv, addr := startServerWith(t, map[string]*graph.Graph{"g": twoCycle(100)})
	busy, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	type reply struct {
		at  time.Time
		err error
	}
	waitHeld := holdNextCommand(t, 300*time.Millisecond)
	inflight := make(chan reply, 1)
	go func() {
		_, err := busy.GraphQuery("g", anbnQuery)
		inflight <- reply{time.Now(), err}
	}()
	waitHeld()

	began := time.Now()
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain flag land

	if err := idle.Ping(); err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("command during drain: err = %v, want shutting-down refusal", err)
	}
	if got := <-inflight; got.err != nil {
		t.Fatalf("in-flight query aborted: %v", got.err)
	} else if !got.at.After(began) {
		t.Fatal("the reply came before Shutdown began: nothing was in flight")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}
