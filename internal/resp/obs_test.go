package resp

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
)

// TestServerInfoSlowlog drives INFO and SLOWLOG through a real client
// connection: a policy with a tiny slow-query threshold makes every
// query land in the slow log, which SLOWLOG GET/LEN/RESET then serve.
func TestServerInfoSlowlog(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.DB.SetPolicy(gdb.Policy{SlowQuery: time.Nanosecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.GraphQuery("cycles", anbnQuery); err != nil {
		t.Fatal(err)
	}

	v, err := c.Do("SLOWLOG", "LEN")
	if err != nil || v.Int != 1 {
		t.Fatalf("SLOWLOG LEN = %+v, %v; want 1", v, err)
	}
	v, err = c.Do("SLOWLOG", "GET")
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("SLOWLOG GET = %+v, %v; want one entry", v, err)
	}
	e := v.Array[0]
	if len(e.Array) != 7 {
		t.Fatalf("slowlog entry has %d fields, want 7: %+v", len(e.Array), e)
	}
	if e.Array[0].Kind != Integer || e.Array[1].Kind != Integer || e.Array[2].Kind != Integer {
		t.Fatalf("slowlog id/ts/duration not integers: %+v", e)
	}
	if args := e.Array[3].Array; len(args) != 3 || args[1].Str != "cycles" ||
		!strings.Contains(args[2].Str, "PATH PATTERN") {
		t.Fatalf("slowlog args = %+v", e.Array[3])
	}
	if e.Array[4].Str != "slow" {
		t.Fatalf("slowlog status = %q, want slow", e.Array[4].Str)
	}

	// A bounded GET, then RESET back to empty (ids keep increasing but
	// the ring is cleared).
	if v, err = c.Do("SLOWLOG", "GET", "1"); err != nil || len(v.Array) != 1 {
		t.Fatalf("SLOWLOG GET 1 = %+v, %v", v, err)
	}
	if _, err = c.Do("SLOWLOG", "RESET"); err != nil {
		t.Fatal(err)
	}
	if v, err = c.Do("SLOWLOG", "LEN"); err != nil || v.Int != 0 {
		t.Fatalf("SLOWLOG LEN after RESET = %+v, %v; want 0", v, err)
	}
	if _, err = c.Do("SLOWLOG", "NOSUCH"); err == nil {
		t.Fatal("expected error for unknown SLOWLOG subcommand")
	}

	info, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# server", "# gdb", "# cache", "# kernels", "# durability",
		"uptime_seconds:", "graphs:1",
		"gdb.queries:", "gdb.slow_queries:",
		"kernel.mul.ops:", "resp.commands:", "governor.completed:",
		"resp.reply.bytes:", "resp.reply.rows:",
	} {
		if !strings.Contains(info.Str, want) {
			t.Errorf("INFO missing %q:\n%s", want, info.Str)
		}
	}
	sec, err := c.Do("INFO", "kernels")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sec.Str, "# kernels") || strings.Contains(sec.Str, "# server") {
		t.Fatalf("INFO kernels = %q", sec.Str)
	}
	if sec, err = c.Do("INFO", "cache"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# cache", "cache.hits:", "cache.promotions:", "cache.bytes:", "cache.probation.bytes:"} {
		if !strings.Contains(sec.Str, want) {
			t.Errorf("INFO cache missing %q:\n%s", want, sec.Str)
		}
	}
	if _, err := c.Do("INFO", "a", "b"); err == nil {
		t.Fatal("expected error for INFO with two arguments")
	}
}

// TestServerProfileSpanTree runs a PROFILE'd query over a live
// connection and checks (a) the reply carries the span tree after the
// standard statistics lines, (b) the tree has the expected stage
// shape, and (c) the kernel counter totals across all spans equal the
// metrics registry's delta over the same query — the two views of
// kernel work must agree exactly.
func TestServerProfileSpanTree(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := obs.Default.Snapshot()
	reply, err := c.GraphQuery("cycles", "PROFILE"+anbnQuery)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)

	if len(reply.Rows) == 0 {
		t.Fatal("PROFILE'd query returned no rows")
	}
	if len(reply.Stats) <= 3 {
		t.Fatalf("no profile lines after stats: %v", reply.Stats)
	}
	profile := reply.Stats[3:]
	if !strings.HasPrefix(profile[0], "query:") {
		t.Fatalf("profile root = %q", profile[0])
	}
	joined := strings.Join(profile, "\n")
	for _, stage := range []string{"parse:", "plan:", "execute:", "round 1:"} {
		if !strings.Contains(joined, stage) {
			t.Errorf("profile missing stage %q:\n%s", stage, joined)
		}
	}

	for _, key := range []string{"kernel.mul.ops", "kernel.mul.nnz", "kernel.add.ops", "kernel.mul.helper_blocks", "kernel.mul.panel_rows"} {
		if total := spanTotal(t, joined, key); total != delta[key] {
			t.Errorf("%s: span total %d != registry delta %d\n%s", key, total, delta[key], joined)
		}
	}
	if delta["kernel.mul.ops"] == 0 {
		t.Fatal("expected non-zero mul ops for the CFPQ fixpoint")
	}

	// The same query without PROFILE returns the same rows and no
	// profile lines — tracing never changes answers.
	plain, err := c.GraphQuery("cycles", anbnQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Stats) != 3 {
		t.Fatalf("unprofiled query grew stats: %v", plain.Stats)
	}
	if len(plain.Rows) != len(reply.Rows) {
		t.Fatalf("PROFILE changed answers: %d rows vs %d", len(reply.Rows), len(plain.Rows))
	}
}

// TestGraphProfileIsThePrefixedSpanTree: GRAPH.PROFILE replies with the
// span tree GRAPH.QUERY "PROFILE <q>" carries in its statistics: the
// same spans in the same nesting (query over parse, plan and execute,
// execute over the fixpoint rounds), kernel counter totals equal to the
// registry's delta over the command, and the result cache untouched —
// its entries, hits and misses stay as they were, even for a cached text.
func TestGraphProfileIsThePrefixedSpanTree(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.DB.SetPolicy(gdb.Policy{CacheMaxBytes: 1 << 20})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 2 { // one miss that fills the cache, one hit
		if _, err := c.GraphQuery("cycles", anbnQuery); err != nil {
			t.Fatal(err)
		}
	}
	cached := srv.DB.Cache().Stats()
	if cached.Entries != 1 || cached.Hits != 1 || cached.Misses != 1 {
		t.Fatalf("cache after a miss and a hit: %+v", cached)
	}
	// Renamed patterns run cold, so each evaluation has its rounds.
	cold := func(name string) string { return strings.ReplaceAll(anbnQuery, "S", name) }

	before := obs.Default.Snapshot()
	lines, err := c.GraphProfile("cycles", cold("P"))
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)
	prefixed, err := c.GraphQuery("cycles", "PROFILE "+cold("Q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GraphProfile("cycles", anbnQuery); err != nil {
		t.Fatal(err)
	}
	if after := srv.DB.Cache().Stats(); after.Entries != cached.Entries || after.Hits != cached.Hits || after.Misses != cached.Misses {
		t.Fatalf("GRAPH.PROFILE moved the cache: %+v → %+v", cached, after)
	}

	tree := strings.Join(lines, "\n")
	shape := spanShape(lines)
	if got, want := shape, spanShape(prefixed.Stats[3:]); !slices.Equal(got, want) {
		t.Fatalf("GRAPH.PROFILE spans %q, the prefixed query's %q", got, want)
	}
	if len(shape) < 5 || !slices.Equal(shape[:4], []string{"query", "    parse", "    plan", "    execute"}) {
		t.Fatalf("span tree shape %q:\n%s", shape, tree)
	}
	for k, s := range shape[4:] {
		if want := "        " + obs.SpanRound(k+1); s != want {
			t.Fatalf("span %d under execute is %q, want %q:\n%s", k+1, s, want, tree)
		}
	}
	for _, key := range []string{obs.KeyMulOps, obs.KeyMulNNZ, obs.KeyAddOps} {
		if total := spanTotal(t, tree, key); total != delta[key] || total == 0 {
			t.Errorf("%s: span total %d, registry delta %d\n%s", key, total, delta[key], tree)
		}
	}
}

// spanShape strips a rendered span tree to each span's indented name.
func spanShape(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i], _, _ = strings.Cut(l, ":")
	}
	return out
}

// spanTotal sums the key=value counters a rendered span tree carries
// for key.
func spanTotal(t *testing.T, tree, key string) int64 {
	t.Helper()
	var total int64
	for _, m := range regexp.MustCompile(regexp.QuoteMeta(key)+`=(\d+)`).FindAllStringSubmatch(tree, -1) {
		n, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// TestServerProfileHelperBlocks checks over the wire the counters the
// a^n b^n profile leaves at zero: kernel.mul.helper_blocks and
// kernel.mul.panel_rows. The first chunk-100 count query of
// go-hierarchy@0.02/G2 multiplies operands of several row blocks, so on
// two processors helpers gather some, and rows long enough for column
// panels; each profile total must equal the registry's delta, and both
// must be more than zero. Each attempt renames the pattern, so it runs
// cold; one in which no helper claimed a block is retried, a bounded
// number of times, while every attempt must gather panel rows. INFO
// kernels lists the panel counter.
func TestServerProfileHelperBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 0.02))
	_, addr := startServerWith(t, map[string]*graph.Graph{"go": g})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const key, attempts = "kernel.mul.helper_blocks", 5
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; ; attempt++ {
		ids := make([]string, 100)
		for x, v := range rng.Perm(g.NumVertices())[:len(ids)] {
			ids[x] = strconv.Itoa(v)
		}
		query := fmt.Sprintf("PROFILE PATH PATTERN S%[1]d = ()-/ [<:subClassOf ~S%[1]d :subClassOf] | [:subClassOf] /->() "+
			"MATCH (v)-/ ~S%[1]d /->(to) WHERE id(v) IN [%[2]s] RETURN count(to)", attempt, strings.Join(ids, ", "))
		before := obs.Default.Snapshot()
		reply, err := c.GraphQuery("go", query)
		if err != nil {
			t.Fatal(err)
		}
		delta := obs.Default.Snapshot().Sub(before)
		tree := strings.Join(reply.Stats, "\n")
		for _, key := range []string{key, obs.KeyMulPanelRows} {
			if total := spanTotal(t, tree, key); total != delta[key] {
				t.Fatalf("%s: span total %d != registry delta %d\n%s", key, total, delta[key], tree)
			}
		}
		if delta[obs.KeyMulPanelRows] == 0 {
			t.Fatalf("%s stayed 0 on attempt %d\n%s", obs.KeyMulPanelRows, attempt, tree)
		}
		if delta[key] > 0 {
			if sec, err := c.Do("INFO", "kernels"); err != nil || !strings.Contains(sec.Str, obs.KeyMulPanelRows+":") {
				t.Fatalf("INFO kernels lacks %s: %q, %v", obs.KeyMulPanelRows, sec.Str, err)
			}
			return
		}
		if attempt == attempts {
			t.Fatalf("%s stayed 0 in %d runs", key, attempts)
		}
	}
}

// TestServerProfileHonorsMaxWork: GRAPH.PROFILE is governed like
// GRAPH.QUERY, so a work budget the query cannot meet comes back as an
// error reply instead of a full profiled run.
func TestServerProfileHonorsMaxWork(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.DB.SetPolicy(gdb.Policy{MaxWork: 3})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GraphProfile("cycles", anbnQuery); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("GRAPH.PROFILE under MaxWork 3: err = %v, want a budget error", err)
	}
	srv.DB.SetPolicy(gdb.Policy{})
	if lines, err := c.GraphProfile("cycles", anbnQuery); err != nil || len(lines) == 0 {
		t.Fatalf("GRAPH.PROFILE without a budget = %q, %v", lines, err)
	}
}
