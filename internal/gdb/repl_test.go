package gdb

import (
	"errors"
	"os"
	"strings"
	"testing"

	"mscfpq/internal/obs"
)

// The gdb-level replication primitives: read-only replica mode, raw
// record scanning/applying (the byte-mirror invariant), lockstep
// rotation, snapshot installs, and the pin-vs-prune contract a live
// replication tail depends on.

func TestReadOnlyReplicaRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	dump, err := db.Dump("g")
	if err != nil {
		t.Fatal(err)
	}

	db.SetReplicaSource("10.0.0.1:6380")
	if got := db.ReplicaSource(); got != "10.0.0.1:6380" {
		t.Fatalf("ReplicaSource = %q", got)
	}
	assertReadOnly := func(what string, err error) {
		t.Helper()
		var ro *ReadOnlyError
		if !errors.As(err, &ro) {
			t.Fatalf("%s on a replica: got %v, want *ReadOnlyError", what, err)
		}
		if ro.Leader != "10.0.0.1:6380" || !strings.HasPrefix(ro.Error(), "READONLY replica of 10.0.0.1:6380") {
			t.Fatalf("%s error lost the leader hint: %q", what, ro.Error())
		}
	}
	_, err = db.Query("g", `CREATE (c:N)`)
	assertReadOnly("mutating Query", err)
	assertReadOnly("Restore", db.Restore("g2", dump))
	_, err = db.Delete("g")
	assertReadOnly("Delete", err)
	assertReadOnly("Save", db.Save())

	// Reads keep serving throughout.
	res := mustQuery(t, db, "g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if len(res.Rows) != 1 {
		t.Fatalf("replica read returned %d rows, want 1", len(res.Rows))
	}

	// And nothing above reached the journal: a crash-restart recovers
	// exactly the pre-replica state.
	db.SetReplicaSource("")
	if err := db.Save(); err != nil {
		t.Fatalf("Save after reverting to leader mode: %v", err)
	}
	sameState(t, map[string]string{"g": dump}, dumpAll(t, reopen(t, dir)))
}

// TestPinSegmentSurvivesSaveDuringStream is the rotation-pruning
// regression: a SAVE (or three) landing while a replication tail is
// mid-transfer must not delete the pinned segment's files out from
// under the open stream. Release hands them back to the pruner.
func TestPinSegmentSurvivesSaveDuringStream(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	if err := db.Save(); err != nil { // seq 0 -> 1
		t.Fatal(err)
	}
	seq, _ := db.ReplPosition()
	if seq != 1 {
		t.Fatalf("sequence after first Save = %d, want 1", seq)
	}
	release := db.PinSegment(1)

	// Rotate well past the retention window (current-1) with the pin
	// held: seq 1's pair must survive every prune.
	for i := 0; i < 3; i++ {
		mustQuery(t, db, "g", `CREATE (x:X)`)
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{db.SnapshotFile(1), db.JournalFile(1)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("pinned segment file pruned during SAVE: %v", err)
		}
	}

	// Released, the next rotation sweeps them.
	release()
	release() // idempotent
	mustQuery(t, db, "g", `CREATE (y:Y)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{db.SnapshotFile(1), db.JournalFile(1)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("released segment %s still on disk (err=%v)", p, err)
		}
	}
}

func TestScanRecordsRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	mustQuery(t, db, "g", `CREATE (c:M)`)
	mustQuery(t, db, "h", `CREATE (x:P)-[:f]->(y:P)`)
	seq, off := db.ReplPosition()

	recs, end, err := ScanRecords(db.JournalFile(seq), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || end != off {
		t.Fatalf("scan = %d records ending at %d, want 3 ending at %d", len(recs), end, off)
	}
	var total int64
	for _, raw := range recs {
		if _, err := decodeFramedRecord(raw); err != nil {
			t.Fatalf("scanned record does not decode: %v", err)
		}
		total += int64(len(raw))
	}
	if total != off {
		t.Fatalf("record bytes %d != committed offset %d", total, off)
	}

	// Resume mid-file: scanning from the first record's end yields the
	// rest — the incremental catch-up path.
	rest, end2, err := ScanRecords(db.JournalFile(seq), int64(len(recs[0])), 1<<30)
	if err != nil || len(rest) != 2 || end2 != off {
		t.Fatalf("resumed scan = %d records ending at %d (%v), want 2 ending at %d", len(rest), end2, err, off)
	}

	// maxBytes caps the batch at a record boundary.
	one, endOne, err := ScanRecords(db.JournalFile(seq), 0, 1)
	if err != nil || len(one) != 1 || endOne != int64(len(recs[0])) {
		t.Fatalf("capped scan = %d records ending at %d (%v), want 1 ending at %d", len(one), endOne, err, len(recs[0]))
	}

	// A torn tail (partial record, garbage length) ends the scan at the
	// last intact boundary without error — matching recovery.
	torn := dir + "/torn.log"
	data, err := os.ReadFile(db.JournalFile(seq))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, append(data, recs[0][:5]...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs2, end3, err := ScanRecords(torn, 0, 1<<30)
	if err != nil || len(recs2) != 3 || end3 != off {
		t.Fatalf("torn-tail scan = %d records ending at %d (%v), want 3 ending at %d", len(recs2), end3, err, off)
	}

	// Corrupt one payload byte: the CRC rejects that record and the scan
	// stops before it.
	data[len(recs[0])+12] ^= 0xff
	if err := os.WriteFile(torn, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs3, _, err := ScanRecords(torn, 0, 1<<30)
	if err != nil || len(recs3) != 1 {
		t.Fatalf("corrupt-record scan = %d records (%v), want 1", len(recs3), err)
	}
}

func TestDecodeFramedRecordRejectsDamage(t *testing.T) {
	raw := journalOp{op: opCypher, name: "g", arg: `CREATE (a:N)`}.encode()
	if _, err := decodeFramedRecord(raw); err != nil {
		t.Fatalf("intact record rejected: %v", err)
	}
	if _, err := decodeFramedRecord(raw[:7]); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := decodeFramedRecord(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	flipped := append([]byte(nil), raw...)
	flipped[10] ^= 0x01
	if _, err := decodeFramedRecord(flipped); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// TestReplApplyMirrorsLeaderBytes is the mirror invariant: shipping a
// leader's raw records through ReplApply leaves the follower with the
// same state, the same (seq, off) position, and a byte-identical
// journal — so follower crash recovery is ordinary Open.
func TestReplApplyMirrorsLeaderBytes(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := reopen(t, ldir)
	follower := reopen(t, fdir)
	follower.SetReplicaSource("leader:0")

	mustQuery(t, leader, "g", `CREATE (a:N {name: 'a'})-[:e]->(b:N)`)
	mustQuery(t, leader, "g", `CREATE (c:M)`)
	mustQuery(t, leader, "h", `CREATE (x:P)-[:f]->(y:P)`)
	_, err := leader.Delete("h")
	if err != nil {
		t.Fatal(err)
	}
	lseq, loff := leader.ReplPosition()

	recs, _, err := ScanRecords(leader.JournalFile(lseq), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range recs {
		if err := follower.ReplApply(raw); err != nil {
			t.Fatalf("ReplApply: %v", err)
		}
	}

	fseq, foff := follower.ReplPosition()
	if fseq != lseq || foff != loff {
		t.Fatalf("follower position %d:%d, leader %d:%d", fseq, foff, lseq, loff)
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, follower))
	lb, err := os.ReadFile(leader.JournalFile(lseq))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(follower.JournalFile(fseq))
	if err != nil {
		t.Fatal(err)
	}
	if string(lb) != string(fb) {
		t.Fatalf("journals diverged: leader %d bytes, follower %d bytes", len(lb), len(fb))
	}

	// Crash-restart the follower: recovery lands on the same position.
	f2 := reopen(t, fdir)
	sameState(t, dumpAll(t, leader), dumpAll(t, f2))
	if seq, off := f2.ReplPosition(); seq != lseq || off != loff {
		t.Fatalf("recovered follower position %d:%d, want %d:%d", seq, off, lseq, loff)
	}

	if err := follower.ReplApply([]byte("garbage")); err == nil {
		t.Fatal("ReplApply accepted a malformed record")
	}
}

func TestReplRotateLockstep(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := reopen(t, ldir)
	follower := reopen(t, fdir)
	follower.SetReplicaSource("leader:0")

	ship := func() {
		t.Helper()
		lseq, _ := leader.ReplPosition()
		_, foff := follower.ReplPosition()
		recs, _, err := ScanRecords(leader.JournalFile(lseq), foff, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range recs {
			if err := follower.ReplApply(raw); err != nil {
				t.Fatal(err)
			}
		}
	}

	mustQuery(t, leader, "g", `CREATE (a:N)-[:e]->(b:N)`)
	ship()
	if err := leader.Save(); err != nil { // leader rotates 0 -> 1
		t.Fatal(err)
	}

	// Out-of-order rotation is refused: the stream must not skip.
	if err := follower.ReplRotate(2); err == nil {
		t.Fatal("ReplRotate accepted a sequence gap")
	}
	if err := follower.ReplRotate(1); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, leader, "g", `CREATE (c:M)`)
	ship()

	lseq, loff := leader.ReplPosition()
	fseq, foff := follower.ReplPosition()
	if fseq != lseq || foff != loff || lseq != 1 {
		t.Fatalf("positions diverged after rotation: leader %d:%d, follower %d:%d", lseq, loff, fseq, foff)
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, follower))
	// The follower cut its own snap-1 when rotating — same boundary
	// state as the leader's, recoverable on its own.
	if _, err := os.Stat(follower.SnapshotFile(1)); err != nil {
		t.Fatalf("follower rotation cut no snapshot: %v", err)
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, reopen(t, fdir)))
}

func TestReplInstallSnapshotReplacesHistory(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader := reopen(t, ldir)
	mustQuery(t, leader, "g", `CREATE (a:N)-[:e]->(b:N)`)
	mustQuery(t, leader, "h", `CREATE (x:P)`)
	for i := 0; i < 2; i++ { // leader ends at seq 2, past the follower's 1
		if err := leader.Save(); err != nil {
			t.Fatal(err)
		}
	}
	seq, _ := leader.ReplPosition()

	// The follower starts with its own divergent history that must be
	// wiped by the install.
	follower := reopen(t, fdir)
	mustQuery(t, follower, "stale", `CREATE (z:Z)`)
	if err := follower.Save(); err != nil {
		t.Fatal(err)
	}
	follower.SetReplicaSource("leader:0")

	snap, err := os.Open(leader.SnapshotFile(seq))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := follower.ReplInstallSnapshot(seq, snap); err != nil {
		t.Fatalf("ReplInstallSnapshot: %v", err)
	}

	sameState(t, dumpAll(t, leader), dumpAll(t, follower))
	if fseq, foff := follower.ReplPosition(); fseq != seq || foff != 0 {
		t.Fatalf("installed position %d:%d, want %d:0", fseq, foff, seq)
	}
	if _, err := os.Stat(follower.SnapshotFile(1)); !os.IsNotExist(err) {
		t.Fatalf("divergent snap-1 survived the install (err=%v)", err)
	}
	// The install is durable on its own: crash-restart recovers it.
	sameState(t, dumpAll(t, leader), dumpAll(t, reopen(t, fdir)))

	// A damaged stream is rejected whole and the database stays usable.
	if err := follower.ReplInstallSnapshot(seq+1, strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("damaged snapshot stream accepted")
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, follower))
	left, err := os.ReadDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("rejected install leaked temp file %s", e.Name())
		}
	}
}

func TestReplInstallSnapshotInMemory(t *testing.T) {
	ldir := t.TempDir()
	leader := reopen(t, ldir)
	mustQuery(t, leader, "g", `CREATE (a:N)-[:e]->(b:N)`)
	if err := leader.Save(); err != nil {
		t.Fatal(err)
	}
	seq, _ := leader.ReplPosition()

	follower := New() // diskless replica: applies in memory only
	follower.SetReplicaSource("leader:0")
	snap, err := os.Open(leader.SnapshotFile(seq))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := follower.ReplInstallSnapshot(seq, snap); err != nil {
		t.Fatal(err)
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, follower))

	mustQuery(t, leader, "g", `CREATE (c:M)`)
	recs, _, err := ScanRecords(leader.JournalFile(seq), 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range recs {
		if err := follower.ReplApply(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.ReplRotate(seq + 1); err != nil {
		t.Fatal(err)
	}
	sameState(t, dumpAll(t, leader), dumpAll(t, follower))
}

// TestWatchJournalWakesOnAppend pins down the watch contract the
// leader's tail loop depends on: a channel taken before a write is
// closed by that write, and rotation/install wake watchers too.
func TestWatchJournalWakesOnAppend(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	assertWakes := func(what string, mutate func()) {
		t.Helper()
		w := db.WatchJournal()
		mutate()
		select {
		case <-w:
		default:
			t.Fatalf("%s did not close the watch channel", what)
		}
	}
	assertWakes("journal append", func() { mustQuery(t, db, "g", `CREATE (a:N)`) })
	assertWakes("rotation", func() {
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
	})
	if New().WatchJournal() != nil {
		t.Fatal("in-memory WatchJournal must be nil")
	}
}

// TestFollowerCacheDropsReplacedStores: a follower applies GRAPH.RESTORE
// and GRAPH.DELETE records through the functions the leader's commands
// run, so each drops the replaced store's cached answers at once
// instead of leaving them to hold cache budget until eviction.
func TestFollowerCacheDropsReplacedStores(t *testing.T) {
	src := New()
	mustQuery(t, src, "g", `CREATE (a:N)-[:e]->(b:N)`)
	dump, err := src.Dump("g")
	if err != nil {
		t.Fatal(err)
	}
	leader := reopen(t, t.TempDir())
	for i := 0; i < 2; i++ {
		if err := leader.Restore("g", dump); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.Delete("g"); err != nil {
		t.Fatal(err)
	}
	seq, _ := leader.ReplPosition()
	recs, _, err := ScanRecords(leader.JournalFile(seq), 0, 1<<30)
	if err != nil || len(recs) != 3 {
		t.Fatalf("leader journal: %d records (%v), want R, R, D", len(recs), err)
	}

	follower := New()
	follower.SetReplicaSource("leader:0")
	follower.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	entries := func() int { return follower.Cache().Stats().Entries }
	for i, raw := range recs {
		if i > 0 {
			mustQuery(t, follower, "g", `MATCH (v) RETURN count(v)`)
			if n := entries(); n != 1 {
				t.Fatalf("before record %d: %d cache entries, want 1", i, n)
			}
		}
		if err := follower.ReplApply(raw); err != nil {
			t.Fatalf("ReplApply record %d: %v", i, err)
		}
		if n := entries(); n != 0 {
			t.Fatalf("after record %d: %d cache entries, want 0", i, n)
		}
	}
}

// TestFollowerFsyncIsObserved: a durable follower's append is the
// leader's, so its fsync lands in dur.fsync.latency_us too.
func TestFollowerFsyncIsObserved(t *testing.T) {
	leader := reopen(t, t.TempDir())
	mustQuery(t, leader, "g", `CREATE (a:N)`)
	seq, _ := leader.ReplPosition()
	recs, _, err := ScanRecords(leader.JournalFile(seq), 0, 1<<30)
	if err != nil || len(recs) != 1 {
		t.Fatalf("leader journal: %d records (%v), want 1", len(recs), err)
	}
	follower := reopen(t, t.TempDir())
	follower.SetReplicaSource("leader:0")
	before := obs.DurFsyncLatencyUS.Count()
	if err := follower.ReplApply(recs[0]); err != nil {
		t.Fatal(err)
	}
	if got := obs.DurFsyncLatencyUS.Count() - before; got != 1 {
		t.Fatalf("dur.fsync.latency_us count moved by %d, want 1", got)
	}
}
