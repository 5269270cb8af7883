package repl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
)

// The replication chaos suite: for every repl.* failpoint, fail (or
// tear, or crash at) that step while a follower streams from a live
// leader, and assert both sides converge back to the leader's acked
// state — the follower reconnects, renegotiates (CONTINUE or a fresh
// full sync), and ends byte-identical.

// chaosReplFailpoints enumerates the replication failpoints on both
// sides (the repl package's stream steps and gdb's apply/install
// steps); the suite refuses a shrunken list so a renamed point cannot
// silently drop its coverage.
func chaosReplFailpoints(t *testing.T) []string {
	t.Helper()
	var pts []string
	for _, n := range fault.Names() {
		if strings.HasPrefix(n, "repl.") {
			pts = append(pts, n)
		}
	}
	if len(pts) < 13 {
		t.Fatalf("chaos suite found only %v — replication failpoints are missing", pts)
	}
	return pts
}

// tearableReplFailpoint reports whether the point streams bytes
// through fault.Writer, making torn-write specs meaningful.
func tearableReplFailpoint(fp string) bool {
	switch fp {
	case FPSend, FPStateWrite, gdb.FPReplApplyAppend, gdb.FPReplInstallWrite:
		return true
	}
	return false
}

// chaosFollower runs a follower with crash-restart semantics: a panic
// escaping the stream loop (an armed Panic spec) is treated as the
// process dying — the database is abandoned mid-operation, reopened
// from disk, and a fresh Replica reattaches, exactly like a restarted
// follower process. The currently live database is published for the
// convergence checker.
type chaosFollower struct {
	dir    string
	cur    atomic.Pointer[gdb.DB]
	cancel context.CancelFunc
	done   chan struct{}
}

func startChaosFollower(t *testing.T, dir, leaderAddr string) *chaosFollower {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cf := &chaosFollower{dir: dir, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(cf.done)
		for ctx.Err() == nil {
			db, err := gdb.Open(dir)
			if err != nil {
				// A half-installed directory cannot happen (install ordering),
				// but an fd hiccup deserves a beat before the retry.
				time.Sleep(5 * time.Millisecond)
				continue
			}
			db.SetReplicaSource(leaderAddr)
			cf.cur.Store(db)
			rep := New(db, leaderAddr)
			rep.minBackoff, rep.maxBackoff = 5*time.Millisecond, 100*time.Millisecond
			func() {
				// The "kill -9": the armed Panic unwinds the stream loop; the
				// database is abandoned (no Close) like a dead process's.
				defer func() { _ = recover() }()
				_ = rep.Run(ctx) // the loop body retries; errors surface as reconnects
			}()
		}
	}()
	t.Cleanup(cf.stop)
	return cf
}

func (cf *chaosFollower) stop() {
	cf.cancel()
	<-cf.done
}

// waitChaosConverged is waitConverged against the crash-restart
// follower's currently live database.
func waitChaosConverged(t *testing.T, leader *gdb.DB, cf *chaosFollower, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		db := cf.cur.Load()
		if db != nil {
			ls, lo := leader.ReplPosition()
			fs, fo := db.ReplPosition()
			if ls == fs && lo == fo && equalState(dumpAll(t, leader), dumpAll(t, db)) {
				return
			}
		}
		if time.Now().After(deadline) {
			var got string
			if db != nil {
				s, o := db.ReplPosition()
				got = fmt.Sprintf("%d:%d", s, o)
			}
			ls, lo := leader.ReplPosition()
			t.Fatalf("chaos follower never converged: leader %d:%d, follower %s", ls, lo, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosReplScenario drives one failpoint through a full replication
// life cycle: bootstrap (snapshot transfer), incremental records, a
// rotation, more records — with the failpoint striking once somewhere
// in the middle — then asserts exact convergence.
func chaosReplScenario(t *testing.T, fp string, spec fault.Spec) {
	defer fault.Reset()
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N {name: 'seed'})-[:e]->(b:N)`)
	mustExec(t, leader.db, "g", `CREATE (c:M)`)

	// One strike: the first pass through the step fails; every retry
	// after the reconnect runs clean.
	disarm := fault.Enable(fp, spec)
	defer disarm()

	cf := startChaosFollower(t, t.TempDir(), leader.addr)

	// Keep the stream busy across every frame kind — records, periodic
	// rotations, more records — until the failpoint fires. A fixed
	// burst is not enough: a follower that attaches late finds the
	// whole history baked into its bootstrap snapshot and would never
	// see a REC or ROTATE frame at all.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; fault.Hits(fp) == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("failpoint %s was never reached by the replication flow", fp)
		}
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (w%d:W)`, i))
		if i%5 == 4 {
			if err := leader.db.Save(); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitChaosConverged(t, leader.db, cf, 15*time.Second)

	// The converged follower still converges after more traffic — the
	// fault left no latent damage behind.
	mustExec(t, leader.db, "g", `CREATE (tail:T)`)
	waitChaosConverged(t, leader.db, cf, 15*time.Second)
}

func TestChaosReplEveryFailpoint(t *testing.T) {
	specs := []struct {
		name string
		spec fault.Spec
	}{
		{"error", fault.Spec{Err: errors.New("chaos: injected stream failure"), Times: 1}},
		{"torn-after-7", fault.Spec{TruncateAfter: 7, Times: 1}},
		{"panic", fault.Spec{Panic: "chaos: crash here", Times: 1}},
	}
	for _, fp := range chaosReplFailpoints(t) {
		for _, sc := range specs {
			if sc.spec.TruncateAfter > 0 && !tearableReplFailpoint(fp) {
				continue
			}
			t.Run(fp+"/"+sc.name, func(t *testing.T) {
				chaosReplScenario(t, fp, sc.spec)
			})
		}
	}
}

// TestChaosFollowerKillRestartMidStream kills the follower process
// (hard cancel, database abandoned) while writes are landing, restarts
// it over the same directory, and expects an incremental CONTINUE —
// bounded by at most one full sync if the kill interrupted bootstrap.
func TestChaosFollowerKillRestartMidStream(t *testing.T) {
	leader := startLeader(t)
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	fdir := t.TempDir()
	follower := startFollowerAt(t, fdir, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	// Kill mid-traffic: half the writes land before, half after.
	for i := 0; i < 5; i++ {
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (w%d:W)`, i))
	}
	follower.stop()
	follower.srv.Close() // abandon follower.db without Close: a dead process
	for i := 5; i < 10; i++ {
		mustExec(t, leader.db, "g", fmt.Sprintf(`CREATE (w%d:W)`, i))
	}

	f2 := startFollowerAt(t, fdir, leader.addr)
	waitConverged(t, leader.db, f2.db, 10*time.Second)
	if info := infoMap(f2.rep.InfoLines()); info["sync_full"] != "0" {
		t.Fatalf("restart over intact history full-synced (sync_full=%s)", info["sync_full"])
	}
}

// TestChaosLeaderRestartMidStream crashes the leader (listener torn
// down, database abandoned mid-flight), restarts it on the same
// address and directory, and expects the follower to reconnect, resume
// incrementally (same replid, valid position), and drain the writes
// issued after the restart.
func TestChaosLeaderRestartMidStream(t *testing.T) {
	ldir := t.TempDir()
	leader := startLeaderAt(t, ldir, "127.0.0.1:0")
	addr := leader.addr
	mustExec(t, leader.db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	follower := startFollower(t, addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)
	// The fresh follower bootstrapped once (the counter lands moments
	// after the install); the restart below must not cost another
	// snapshot transfer.
	waitUntil(t, 5*time.Second, "the initial bootstrap to be recorded", func() bool {
		return infoMap(follower.rep.InfoLines())["sync_full"] == "1"
	})

	// Crash: the listener dies and the database is abandoned without
	// Close — exactly a killed process (every acked write was fsynced).
	leader.srv.Close()

	leader2 := startLeaderAt(t, ldir, addr)
	if leader2.hub.replid != leader.hub.replid {
		t.Fatalf("restarted leader minted a new replid: %s vs %s", leader2.hub.replid, leader.hub.replid)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, leader2.db, "g", fmt.Sprintf(`CREATE (p%d:P)`, i))
	}
	waitConverged(t, leader2.db, follower.db, 15*time.Second)
	if got := infoMap(follower.rep.InfoLines())["sync_full"]; got != "1" {
		t.Fatalf("leader restart forced a full sync (sync_full 1 -> %s), want CONTINUE", got)
	}
}

// TestChaosTornStreamMatchesAckedState: a torn send mid-stream must
// never surface a half record on the follower — after the reconnect
// the follower holds exactly the leader's acked writes, verified all
// the way down to the journal bytes by the convergence check.
func TestChaosTornStreamMatchesAckedState(t *testing.T) {
	defer fault.Reset()
	leader := startLeader(t)
	mustExec(t, leader.db, "anbn", `CREATE (v0)-[:a]->(v1), (v1)-[:a]->(v0), (v0)-[:b]->(v2), (v2)-[:b]->(v3), (v3)-[:b]->(v0)`)
	follower := startFollower(t, leader.addr)
	waitConverged(t, leader.db, follower.db, 10*time.Second)

	// Tear the socket mid-frame on the next records.
	disarm := fault.Enable(FPSend, fault.Spec{TruncateAfter: 11, Times: 1})
	defer disarm()
	mustExec(t, leader.db, "anbn", `CREATE (v1b)-[:b]->(v1c)`)
	mustExec(t, leader.db, "anbn", `CREATE (w)-[:a]->(w2)`)
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(FPSend) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("torn send never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, leader.db, follower.db, 15*time.Second)

	res, err := follower.db.Query("anbn", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := leader.db.Query("anbn", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(lres.Rows) || len(res.Rows) == 0 {
		t.Fatalf("follower CFPQ answered %d pairs, leader %d", len(res.Rows), len(lres.Rows))
	}
}
