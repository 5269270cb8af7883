package repl

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/gdb"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
	"mscfpq/internal/resp"
)

// End-to-end replication: a real leader server (Hub on SYNC) and a
// real follower loop (Replica) over TCP, exercising bootstrap,
// incremental catch-up, lockstep rotation, read-only serving from
// pinned snapshots, and the INFO surfaces.

// leaderNode is a running leader: durable database + RESP server with
// the replication hub installed.
type leaderNode struct {
	dir  string
	db   *gdb.DB
	hub  *Hub
	srv  *resp.Server
	addr string
}

// startLeaderAt boots a leader over dir, listening on addr ("127.0.0.1:0"
// for any port). Restart tests reuse the dir and the bound address.
func startLeaderAt(t *testing.T, dir, addr string) *leaderNode {
	t.Helper()
	db, err := gdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := resp.NewServer(db)
	srv.SyncHandler = hub.HandleSync
	srv.ReplInfo = hub.InfoLines
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return &leaderNode{dir: dir, db: db, hub: hub, srv: srv, addr: bound.String()}
}

func startLeader(t *testing.T) *leaderNode {
	return startLeaderAt(t, t.TempDir(), "127.0.0.1:0")
}

// followerNode is a running follower: durable replica database + the
// stream loop, plus a RESP server so reads are exercised end to end.
type followerNode struct {
	dir    string
	db     *gdb.DB
	rep    *Replica
	srv    *resp.Server
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
}

func startFollowerAt(t *testing.T, dir, leaderAddr string) *followerNode {
	t.Helper()
	db, err := gdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetReplicaSource(leaderAddr)
	rep := New(db, leaderAddr)
	rep.minBackoff, rep.maxBackoff = 5*time.Millisecond, 100*time.Millisecond
	srv := resp.NewServer(db)
	srv.ReplInfo = rep.InfoLines
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rep.Run(ctx) // returns only the shutdown cancellation
	}()
	f := &followerNode{dir: dir, db: db, rep: rep, srv: srv, addr: bound.String(), cancel: cancel, done: done}
	t.Cleanup(f.stop)
	return f
}

func startFollower(t *testing.T, leaderAddr string) *followerNode {
	return startFollowerAt(t, t.TempDir(), leaderAddr)
}

// stop cancels the stream loop and waits for it to exit. Idempotent.
func (f *followerNode) stop() {
	f.cancel()
	<-f.done
}

func mustExec(t *testing.T, db *gdb.DB, graph, src string) {
	t.Helper()
	if _, err := db.Query(graph, src); err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
}

// dumpAll fingerprints every graph in the database.
func dumpAll(t *testing.T, db *gdb.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range db.List() {
		d, err := db.Dump(name)
		if err != nil {
			t.Fatalf("Dump(%s): %v", name, err)
		}
		out[name] = d
	}
	return out
}

func equalState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// waitConverged blocks until the follower mirrors the leader exactly:
// same journal position, same graph dumps. Call only after leader
// writes have stopped.
func waitConverged(t *testing.T, leader, follower *gdb.DB, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ls, lo := leader.ReplPosition()
		fs, fo := follower.ReplPosition()
		if ls == fs && lo == fo && equalState(dumpAll(t, leader), dumpAll(t, follower)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: leader %d:%d, follower %d:%d", ls, lo, fs, fo)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// infoMap parses "k:v" INFO lines (replicaN lines keep their raw value).
func infoMap(lines []string) map[string]string {
	m := map[string]string{}
	for _, l := range lines {
		k, v, _ := strings.Cut(l, ":")
		m[k] = v
	}
	return m
}

// TestBootstrapUnderConcurrentWrites is the acceptance scenario: a
// fresh replica attaches to a live leader under concurrent writes,
// bootstraps from a streamed snapshot, catches up to lag 0 once writes
// stop, and serves correct read-only queries over RESP.
func TestBootstrapUnderConcurrentWrites(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N {name: 'seed'})-[:e]->(b:N)`)
	if err := leader.db.Save(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := leader.db.Query("g", fmt.Sprintf(`CREATE (w%d:W {k: %d})`, i, i)); err != nil {
				t.Errorf("concurrent write %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	follower := startFollower(t, leader.addr)
	wg.Wait()
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	waitUntil(t, 5*time.Second, "lag to reach 0", func() bool {
		follower.rep.mu.Lock()
		defer follower.rep.mu.Unlock()
		return follower.rep.caughtUp
	})

	// The follower's own INFO: a replica that bootstrapped once.
	info := infoMap(follower.rep.InfoLines())
	if info["role"] != "replica" || info["state"] != "connected" || info["sync_full"] != "1" {
		t.Fatalf("follower INFO wrong: %v", info)
	}
	if info["lag_seconds"] != "0" {
		t.Fatalf("lag_seconds = %s after convergence", info["lag_seconds"])
	}
	linfo := infoMap(leader.hub.InfoLines())
	if linfo["role"] != "leader" || linfo["connected_replicas"] != "1" {
		t.Fatalf("leader INFO wrong: %v", linfo)
	}

	// Read-only serving over RESP: reads answer, writes bounce with the
	// leader's address.
	c, err := resp.Dial(follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.GraphQuery("g", `MATCH (v:W) RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Rows) != 20 {
		t.Fatalf("follower served %d rows, want 20", len(reply.Rows))
	}
	_, err = c.Do("GRAPH.QUERY", "g", `CREATE (x:X)`)
	if hint, ok := resp.LeaderHint(err); !ok || hint != leader.addr {
		t.Fatalf("follower write rejection hint = %q, %v (err=%v)", hint, ok, err)
	}
	v, err := c.Do("INFO", "replication")
	if err != nil || !strings.Contains(v.Str, "role:replica") {
		t.Fatalf("INFO replication over RESP = %q, %v", v.Str, err)
	}
}

// TestFollowerQueryMatchesOracle closes the loop with the paper's
// semantics: a graph built through the replication stream answers the
// a^n b^n context-free path query exactly as the reference CYK oracle
// does on the same edges.
func TestFollowerQueryMatchesOracle(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "anbn", `CREATE (v0)-[:a]->(v1), (v1)-[:a]->(v0), (v0)-[:b]->(v2), (v2)-[:b]->(v3), (v3)-[:b]->(v0)`)
	follower := startFollower(t, leader.addr)
	mustExec(t, leader.db, "anbn", `CREATE (v1b)-[:b]->(v1c)`)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	res, err := follower.db.Query("anbn", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	got := append([][]int64(nil), res.Rows...)
	sort.Slice(got, func(i, j int) bool {
		return got[i][0] < got[j][0] || (got[i][0] == got[j][0] && got[i][1] < got[j][1])
	})

	g := graph.New(6)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 0)
	g.AddEdge(0, "b", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	g.AddEdge(4, "b", 5)
	w := grammar.MustWCNF(grammar.MustParse("S -> a S b | a b"))
	want := oracle.CFPQ(g, w).StartPairs()
	if len(want) == 0 {
		t.Fatal("oracle relation is empty — the scenario lost its teeth")
	}
	if len(got) != len(want) {
		t.Fatalf("follower returned %d pairs, oracle %d\ngot: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i, p := range want {
		if got[i][0] != int64(p[0]) || got[i][1] != int64(p[1]) {
			t.Fatalf("pair %d: follower %v, oracle %v", i, got[i], p)
		}
	}
}

// TestPartialResyncContinues: a follower that restarts with intact
// history resumes from its recovered journal position (CONTINUE), not
// a second snapshot transfer.
func TestPartialResyncContinues(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	fdir := t.TempDir()
	follower := startFollowerAt(t, fdir, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	follower.stop()
	follower.srv.Close()
	if err := follower.db.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on while the follower is down.
	for i := 0; i < 5; i++ {
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (p%d:P)`, i))
	}

	f2 := startFollowerAt(t, fdir, leader.addr)
	waitConverged(t, leader.db, f2.db, 10*time.Second)
	info := infoMap(f2.rep.InfoLines())
	if info["sync_full"] != "0" {
		t.Fatalf("restart with intact history full-synced (sync_full=%s), want CONTINUE", info["sync_full"])
	}
}

// TestForeignHistoryForcesFullSync: a directory carrying some other
// history (wrong replid) is wiped and re-bootstrapped, never merged.
func TestForeignHistoryForcesFullSync(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)

	// Build a divergent standalone history in the follower's dir.
	fdir := t.TempDir()
	stale, err := gdb.Open(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Query("stale", `CREATE (z:Z)`); err != nil {
		t.Fatal(err)
	}
	if err := stale.Save(); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	// Claim a history the leader has never heard of.
	if err := saveSource(fdir, "00000000000000000000000000000000"); err != nil {
		t.Fatal(err)
	}

	follower := startFollowerAt(t, fdir, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	// The bookkeeping (sync_full counter, persisted source identity)
	// lands moments after the install the convergence check observes;
	// had the foreign history been CONTINUEd, sync_full would stay 0.
	waitUntil(t, 5*time.Second, "the full sync to be recorded", func() bool {
		return infoMap(follower.rep.InfoLines())["sync_full"] == "1"
	})
	if _, err := follower.db.Dump("stale"); err == nil {
		t.Fatal("divergent graph survived the full sync")
	}
	// The adopted identity is the leader's.
	waitUntil(t, 5*time.Second, "the leader's identity to be adopted", func() bool {
		return loadSource(fdir) == leader.hub.replid
	})
}

// TestRotationLockstepLive: SAVEs on the live leader rotate the
// follower's files in lockstep, mid-stream, repeatedly.
func TestRotationLockstepLive(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	follower := startFollower(t, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	for round := 0; round < 3; round++ {
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (r%d:R)`, round))
		if err := leader.db.Save(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (s%d:S)`, round))
		waitConverged(t, leader.db, follower.db, 10*time.Second)
	}
	lseq, _ := leader.db.ReplPosition()
	fseq, _ := follower.db.ReplPosition()
	if fseq != lseq || fseq < 3 {
		t.Fatalf("sequences diverged after rotations: leader %d, follower %d", lseq, fseq)
	}
}

// TestPinnedSnapshotIsolation: a query pinned at version V on the
// follower keeps seeing V while the stream applies V+1 underneath —
// the MVCC contract replication must not break.
func TestPinnedSnapshotIsolation(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	follower := startFollower(t, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	store, err := follower.db.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	pinned := store.Snapshot() // version V, held across incoming writes
	baseVersion := pinned.Version()
	baseEdges := pinned.Graph().NumEdges()

	mustExec(t, leader.db, "g", `CREATE (c:N)-[:e2]->(d:N)`)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	if pinned.Version() != baseVersion || pinned.Graph().NumEdges() != baseEdges {
		t.Fatalf("pinned snapshot mutated: version %d->%d, edges %d->%d",
			baseVersion, pinned.Version(), baseEdges, pinned.Graph().NumEdges())
	}
	fresh, err := follower.db.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	now := fresh.Snapshot()
	if now.Version() <= baseVersion || now.Graph().NumEdges() != baseEdges+1 {
		t.Fatalf("replicated write invisible: version %d (base %d), edges %d (base %d)",
			now.Version(), baseVersion, now.Graph().NumEdges(), baseEdges)
	}
}

// TestInfoMonotonicUnderWrites: while writes (and a rotation) land on
// the leader, both sides' INFO positions advance monotonically in
// (journal_seq, journal_offset) order — offsets never run backwards.
func TestInfoMonotonicUnderWrites(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)`)
	follower := startFollower(t, leader.addr)

	stopPoll := make(chan struct{})
	var pollErr error
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		parse := func(m map[string]string) (uint64, int64, error) {
			var seq uint64
			var off int64
			if _, err := fmt.Sscanf(m["journal_seq"], "%d", &seq); err != nil {
				return 0, 0, fmt.Errorf("bad journal_seq %q", m["journal_seq"])
			}
			if _, err := fmt.Sscanf(m["journal_offset"], "%d", &off); err != nil {
				return 0, 0, fmt.Errorf("bad journal_offset %q", m["journal_offset"])
			}
			return seq, off, nil
		}
		var lSeq, fSeq uint64
		var lOff, fOff int64
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			ls, lo, err := parse(infoMap(leader.hub.InfoLines()))
			if err != nil {
				pollErr = err
				return
			}
			if ls < lSeq || (ls == lSeq && lo < lOff) {
				pollErr = fmt.Errorf("leader position ran backwards: %d:%d after %d:%d", ls, lo, lSeq, lOff)
				return
			}
			lSeq, lOff = ls, lo
			fs, fo, err := parse(infoMap(follower.rep.InfoLines()))
			if err != nil {
				pollErr = err
				return
			}
			if fs < fSeq || (fs == fSeq && fo < fOff) {
				pollErr = fmt.Errorf("follower position ran backwards: %d:%d after %d:%d", fs, fo, fSeq, fOff)
				return
			}
			fSeq, fOff = fs, fo
		}
	}()

	for i := 0; i < 15; i++ {
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (w%d:W)`, i))
		if i == 7 {
			if err := leader.db.Save(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	close(stopPoll)
	pollWG.Wait()
	if pollErr != nil {
		t.Fatal(pollErr)
	}
}

// TestRoutingClientAgainstLivePair: the client-side of the feature —
// bootstrap against the follower, get routed to the leader for writes,
// read the replicated result back from the follower.
func TestRoutingClientAgainstLivePair(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)`)
	follower := startFollower(t, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	rc := resp.NewRoutingClient(follower.addr, follower.addr)
	defer rc.Close()
	if _, err := rc.Write("GRAPH.QUERY", "g", `CREATE (b:B)-[:e]->(c:B)`); err != nil {
		t.Fatalf("routed write: %v", err)
	}
	if rc.Leader() != leader.addr {
		t.Fatalf("routing client leader = %s, want %s", rc.Leader(), leader.addr)
	}
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	v, err := rc.Read("GRAPH.QUERY", "g", `MATCH (v:B)-[:e]->(u) RETURN v, u`)
	if err != nil {
		t.Fatalf("routed read: %v", err)
	}
	if len(v.Array) != 3 || len(v.Array[1].Array) != 1 {
		t.Fatalf("routed read reply shape: %+v", v)
	}
}
