package gdb

import (
	"bytes"
	"context"
	"errors"
	"log"
	"strconv"
	"strings"
	"testing"
	"time"

	"mscfpq/internal/exec"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
)

// heavyStore returns a DB with a two-cycle graph whose a^n b^n query
// keeps the CFPQ fixpoint busy long enough for governance to bite.
func heavyDB(t *testing.T, p int) *DB {
	t.Helper()
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
	db := New()
	db.AddGraph("g", g)
	return db
}

const anbnQuery = `
	PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
	MATCH (v)-/ ~S /->(to) RETURN v, to`

func TestQueryContextCancelled(t *testing.T) {
	db := heavyDB(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "g", anbnQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// CREATE honors the context too.
	if _, err := db.QueryContext(ctx, "g", "CREATE (:L)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("create err = %v, want context.Canceled", err)
	}
	// The same statements succeed with a live context.
	if _, err := db.QueryContext(context.Background(), "g", anbnQuery); err != nil {
		t.Fatalf("live query: %v", err)
	}
}

func TestPolicyDefaultTimeout(t *testing.T) {
	db := heavyDB(t, 700)
	db.SetPolicy(Policy{DefaultTimeout: time.Millisecond})
	start := time.Now()
	_, err := db.Query("g", anbnQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("aborted query took %v", elapsed)
	}
}

func TestTimeoutClauseOverridesPolicy(t *testing.T) {
	db := heavyDB(t, 12)
	// A policy timeout too small to finish, loosened per query by the
	// TIMEOUT clause.
	db.SetPolicy(Policy{DefaultTimeout: time.Nanosecond})
	if _, err := db.Query("g", anbnQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("policy timeout did not fire: %v", err)
	}
	res, err := db.Query("g", anbnQuery+" TIMEOUT 60000")
	if err != nil {
		t.Fatalf("loosened query failed: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("loosened query returned no rows")
	}
}

func TestPolicyMaxWork(t *testing.T) {
	db := heavyDB(t, 60)
	db.SetPolicy(Policy{MaxWork: 3})
	if _, err := db.Query("g", anbnQuery); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v, want exec.ErrBudget", err)
	}
	// Lifting the budget restores service.
	db.SetPolicy(Policy{})
	if _, err := db.Query("g", anbnQuery); err != nil {
		t.Fatalf("ungoverned query failed: %v", err)
	}
}

// TestRelationshipHopIsGoverned: the work budget bounds a relationship
// pattern too. Every a-edge of a 400-vertex chain is a row the hop seeds
// and charges, so a budget of 10 stops it; without one it counts them.
func TestRelationshipHopIsGoverned(t *testing.T) {
	g := graph.New(400)
	for i := 0; i+1 < 400; i++ {
		g.AddEdge(i, "a", i+1)
	}
	db := New()
	db.AddGraph("g", g)
	db.SetPolicy(Policy{MaxWork: 10})
	const q = `MATCH (v)-[:a]->(u) RETURN count(u)`
	if _, err := db.Query("g", q); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v, want exec.ErrBudget", err)
	}
	db.SetPolicy(Policy{})
	res, err := db.Query("g", q)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != 399 {
		t.Fatalf("ungoverned count = %v, %v; want 399", res, err)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := heavyDB(t, 60)
	var buf bytes.Buffer
	db.SetPolicy(Policy{MaxWork: 3, Log: log.New(&buf, "", 0)})
	if _, err := db.Query("g", anbnQuery); err == nil {
		t.Fatal("expected budget abort")
	}
	line := buf.String()
	for _, want := range []string{"status=aborted", `graph="g"`, "budget=3", "work="} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}

	// A completed query at or above the SlowQuery threshold is logged as
	// slow; fast queries are not logged at all.
	buf.Reset()
	db.SetPolicy(Policy{SlowQuery: time.Nanosecond, Log: log.New(&buf, "", 0)})
	if _, err := db.Query("g", anbnQuery); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "status=slow") {
		t.Fatalf("slow log missing: %q", buf.String())
	}
	buf.Reset()
	db.SetPolicy(Policy{Log: log.New(&buf, "", 0)})
	if _, err := db.Query("g", anbnQuery); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unexpected log output: %q", buf.String())
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	db := New()
	p := Policy{DefaultTimeout: time.Second, MaxWork: 99, SlowQuery: time.Minute}
	db.SetPolicy(p)
	if got := db.Policy(); got != p {
		t.Fatalf("Policy() = %+v, want %+v", got, p)
	}
}

// TestProfileIsGoverned: a PROFILE'd statement, what GRAPH.PROFILE
// sends, runs what GRAPH.QUERY runs, so the work budget and the
// caller's context bound it, and it is counted and slow-logged like a
// query. On a 400-vertex a-chain the closure below has 79 800 answers;
// a budget of 10 must stop it.
func TestProfileIsGoverned(t *testing.T) {
	g := graph.New(400)
	for i := 0; i+1 < 400; i++ {
		g.AddEdge(i, "a", i+1)
	}
	db := New()
	db.AddGraph("g", g)
	db.SetPolicy(Policy{MaxWork: 10})
	const q = `MATCH (v)-/ [:a]+ /->(to) RETURN count(to)`
	if _, err := db.Query("g", q); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("query err = %v, want exec.ErrBudget", err)
	}
	logged, queries := db.SlowLog().Len(), obs.GdbQueries.Value()
	if _, err := db.QueryCells(context.Background(), "g", "PROFILE "+q); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("profile err = %v, want exec.ErrBudget", err)
	}
	if got := db.SlowLog().Len(); got != logged+1 {
		t.Fatalf("slow log holds %d entries after an aborted profile, want %d", got, logged+1)
	}
	if got := obs.GdbQueries.Value(); got != queries+1 {
		t.Fatalf("gdb.queries moved by %d over an aborted profile, want 1", got-queries)
	}

	db.SetPolicy(Policy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCells(ctx, "g", "PROFILE "+q); !errors.Is(err, context.Canceled) {
		t.Fatalf("profile under a cancelled context: err = %v, want context.Canceled", err)
	}
	res, err := db.QueryCells(context.Background(), "g", "PROFILE "+q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) == 0 || !strings.HasPrefix(res.Profile[0], "query: ") ||
		!strings.Contains(strings.Join(res.Profile, "\n"), "round 1: ") {
		t.Fatalf("profile lines = %q", res.Profile)
	}
}

// TestProfileRootCoversChildren: a PROFILE'd statement's root span runs
// from its arrival, so it lasts at least as long as its children
// together, the parse included. The statement's 4 000 ids make its
// parse the longest stage by far, so a root started after the parse
// falls short of the sum.
func TestProfileRootCoversChildren(t *testing.T) {
	g := graph.New(10)
	for i := 0; i+1 < 10; i++ {
		g.AddEdge(i, "a", i+1)
	}
	db := New()
	db.AddGraph("g", g)
	ids := make([]string, 4000)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	q := "PROFILE MATCH (v)-/ [:a]+ /->(to) WHERE id(v) IN [" + strings.Join(ids, ", ") + "] RETURN count(to)"
	for range 3 {
		res, err := db.QueryCells(context.Background(), "g", q)
		if err != nil {
			t.Fatal(err)
		}
		root, children := spanMS(t, res.Profile[0]), 0.0
		var names []string
		for _, l := range res.Profile[1:] {
			if strings.HasPrefix(l, "    ") && !strings.HasPrefix(l, "        ") {
				children += spanMS(t, l)
				names = append(names, strings.TrimSpace(l[:strings.Index(l, ":")]))
			}
		}
		if strings.Join(names, " ") != "parse plan execute" {
			t.Fatalf("root's children are %q, want parse, plan, execute:\n%s", names, strings.Join(res.Profile, "\n"))
		}
		// Each line rounds to the microsecond.
		if root+0.002 < children {
			t.Fatalf("root %.3fms is shorter than its children's %.3fms:\n%s", root, children, strings.Join(res.Profile, "\n"))
		}
	}
}

// spanMS reads the duration off a rendered span line ("name: 1.234ms
// [counters]").
func spanMS(t *testing.T, line string) float64 {
	t.Helper()
	_, rest, _ := strings.Cut(line, ": ")
	ms, _, _ := strings.Cut(rest, "ms")
	d, err := strconv.ParseFloat(ms, 64)
	if err != nil {
		t.Fatalf("span line %q: %v", line, err)
	}
	return d
}
