package gdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mscfpq/internal/fault"
)

// reopen simulates a crash-and-restart: the DB is abandoned without
// Close (its journal fd leaks for the test's lifetime, like a killed
// process's) and the directory is recovered fresh.
func reopen(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	})
	return db
}

func mustQuery(t *testing.T, db *DB, graph, src string) *QueryResult {
	t.Helper()
	res, err := db.Query(graph, src)
	if err != nil {
		t.Fatalf("Query(%s, %q): %v", graph, src, err)
	}
	return res
}

// dumpAll renders every graph, keyed by name — the state fingerprint
// the recovery tests compare.
func dumpAll(t *testing.T, db *DB) map[string]string {
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

func sameState(t *testing.T, want, got map[string]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("graph sets differ: want %d graphs, got %d", len(want), len(got))
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("graph %q differs after recovery:\nwant:\n%s\ngot:\n%s", name, w, got[name])
		}
	}
}

func TestOpenEmptyAndJournalReplay(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	if !db.Durable() || db.DataDir() != dir {
		t.Fatal("Open did not attach durability")
	}
	mustQuery(t, db, "g", `CREATE (a:N {name: 'x'})-[:e]->(b:N)`)
	mustQuery(t, db, "g", `CREATE (a:M)-[:f]->(b:M)`)
	want := dumpAll(t, db)

	db2 := reopen(t, dir) // journal-only recovery: no snapshot yet
	sameState(t, want, dumpAll(t, db2))
	res := mustQuery(t, db2, "g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if len(res.Rows) != 1 {
		t.Fatalf("replayed graph rows = %d, want 1", len(res.Rows))
	}
}

func TestSaveSnapshotAndRotate(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(snapshotPath(dir, 1)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if _, err := os.Stat(journalPath(dir, 1)); err != nil {
		t.Fatalf("rotated journal missing: %v", err)
	}
	if _, err := os.Stat(journalPath(dir, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("retired journal not pruned: %v", err)
	}
	// Ops after the snapshot land in the new journal.
	mustQuery(t, db, "h", `CREATE (a:X)`)
	want := dumpAll(t, db)

	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))
}

func TestDeleteAndRestoreAreJournaled(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "a", `CREATE (x:N)`)
	mustQuery(t, db, "b", `CREATE (y:M)`)
	dump, err := db.Dump("a")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Delete("a"); !ok || err != nil {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if err := db.Restore("c", dump); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	want := dumpAll(t, db)

	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))
	if _, err := db2.Get("a"); err == nil {
		t.Fatal("deleted graph resurrected by replay")
	}
}

func TestTornJournalTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)-[:e]->(b:N)`)
	want := dumpAll(t, db)

	// Tear the tail: append half a record's worth of garbage.
	path := journalPath(dir, 0)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(intact, 0x00, 0x01, 0x02, 0x03, 0x04), 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))
	// The tail was physically truncated so appends restart cleanly.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(intact) {
		t.Fatalf("journal length after recovery = %d, want %d", len(after), len(intact))
	}
	mustQuery(t, db2, "g", `CREATE (c:P)`)
	db3 := reopen(t, dir)
	sameState(t, dumpAll(t, db2), dumpAll(t, db3))
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	if err := db.Save(); err != nil { // snap-1
		t.Fatal(err)
	}
	mustQuery(t, db, "g", `CREATE (b:M)`) // acked into wal-1
	if err := db.Save(); err != nil {     // snap-2; snap-1 + wal-1 kept as fallback
		t.Fatal(err)
	}
	want := dumpAll(t, db)

	// Bit-rot the newest snapshot: recovery must fall back to snap-1
	// AND replay its retained journal wal-1, so even the fallback path
	// loses no acknowledged op.
	if err := os.WriteFile(snapshotPath(dir, 2), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journalPath(dir, 1)); err != nil {
		t.Fatalf("fallback journal wal-1 was pruned: %v", err)
	}
	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))
}

// TestPruneKeepsOnlyFallbackPair pins the retention policy: after the
// third save the directory holds exactly the live pair and the
// fallback pair.
func TestPruneKeepsOnlyFallbackPair(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	for i := 0; i < 3; i++ {
		mustQuery(t, db, "g", `CREATE (a:N)`)
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
	}
	for seq, want := range map[uint64]bool{1: false, 2: true, 3: true} {
		_, serr := os.Stat(snapshotPath(dir, seq))
		_, jerr := os.Stat(journalPath(dir, seq))
		if got := serr == nil; got != want {
			t.Errorf("snap-%d present = %v, want %v", seq, got, want)
		}
		if got := jerr == nil; got != want {
			t.Errorf("wal-%d present = %v, want %v", seq, got, want)
		}
	}
	if _, err := os.Stat(journalPath(dir, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("genesis journal wal-0 not pruned: %v", err)
	}
}

func TestAllSnapshotsCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 1), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open succeeded with every snapshot corrupt; want an explicit error, not silent data loss")
	}
}

func TestClosedDatabaseRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := db.Query("g", `CREATE (b:M)`); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Close = %v, want ErrClosed", err)
	}
	if err := db.Save(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close = %v, want ErrClosed", err)
	}
	// Reads still answer from memory.
	res := mustQuery(t, db, "g", `MATCH (v:N) RETURN v`)
	if len(res.Rows) != 1 {
		t.Fatal("read after Close lost data")
	}
}

func TestSaveOnInMemoryDBErrors(t *testing.T) {
	db := New()
	if err := db.Save(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Save on in-memory DB = %v, want ErrNotDurable", err)
	}
	if db.Durable() || db.DataDir() != "" {
		t.Fatal("in-memory DB claims durability")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close on in-memory DB = %v", err)
	}
}

func TestAutoSaveInterval(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	db.SetPolicy(Policy{SaveInterval: 20 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snapshotPath(dir, 1)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-saver cut no snapshot within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTempFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "snap-12345.tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
}

// TestConcurrentMutationsApplyInJournalOrder pins the commit-order
// invariant: mutations must reach memory in the order they reached the
// journal, because replay runs in journal order and applies are
// order-sensitive (runCreate assigns vertex IDs from the current
// count, Restore replaces whole stores). A divergent live order would
// make the recovered state differ from the acknowledged one.
func TestConcurrentMutationsApplyInJournalOrder(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique label per goroutine: the label→vertex-ID binding
			// fingerprints the apply order in the dump.
			if _, err := db.Query("g", fmt.Sprintf(`CREATE (a:L%d {k: %d})`, i, i)); err != nil {
				t.Errorf("concurrent CREATE %d: %v", i, err)
			}
			if i%4 == 0 {
				if _, err := db.Query("h", fmt.Sprintf(`CREATE (b:M%d)`, i)); err != nil {
					t.Errorf("concurrent CREATE on h (%d): %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	want := dumpAll(t, db)

	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))
}

// TestCloseDuringSaveDoesNotInstallJournal covers the auto-saver's
// Save racing Close: the swap must not install the fresh journal into
// a closed durability (leaking its fd and closing a nil handle) — it
// retires the fresh pair and reports ErrClosed instead.
func TestCloseDuringSaveDoesNotInstallJournal(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	want := dumpAll(t, db)

	// Hold Save at the dirsync — after the snapshot rename, just
	// before the journal swap — while Close runs to completion.
	disarm := fault.Enable(FPSnapshotDirSync, fault.Spec{Delay: 500 * time.Millisecond})
	defer disarm()
	saveErr := make(chan error, 1)
	go func() { saveErr <- db.Save() }()
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(FPSnapshotDirSync) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Save never reached the dirsync failpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close racing Save: %v", err)
	}
	if err := <-saveErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("Save racing Close = %v, want ErrClosed", err)
	}

	// The fresh pair was retired, not installed ...
	if _, err := os.Stat(snapshotPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan snapshot installed by closed Save: %v", err)
	}
	if _, err := os.Stat(journalPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan journal installed by closed Save: %v", err)
	}
	// ... and recovery still surfaces every acknowledged op (wal-0).
	sameState(t, want, dumpAll(t, reopen(t, dir)))
}

// TestConcurrentDeleteReportsExistedOnce: concurrent deletes of the
// same graph must not all report success — the existence answer comes
// from the serialized apply, and the duplicate journaled 'D' records
// replay idempotently.
func TestConcurrentDeleteReportsExistedOnce(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	var wg sync.WaitGroup
	var existed atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := db.Delete("g")
			if err != nil {
				t.Errorf("concurrent Delete: %v", err)
			}
			if ok {
				existed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := existed.Load(); n != 1 {
		t.Fatalf("%d concurrent deletes reported the graph existed, want exactly 1", n)
	}
	db2 := reopen(t, dir)
	if _, err := db2.Get("g"); err == nil {
		t.Fatal("deleted graph resurrected by replay")
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	ops := []journalOp{
		{op: opCypher, name: "g", arg: `CREATE (a:N)`},
		{op: opRestore, name: "with spaces", arg: "order 1\n"},
		{op: opDelete, name: "g"},
	}
	for _, op := range ops {
		enc := op.encode()
		got, err := decodeJournalOp(enc[8:])
		if err != nil {
			t.Fatalf("decode(%q): %v", op.op, err)
		}
		if got != op {
			t.Fatalf("round trip = %+v, want %+v", got, op)
		}
	}
	if _, err := decodeJournalOp([]byte("short")); err == nil {
		t.Fatal("short payload decoded")
	}
	if _, err := decodeJournalOp([]byte{'Z', 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown opcode decoded")
	}
}

func TestSnapshotRoundTripMultipleGraphs(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "one", `CREATE (a:N {k: 1})-[:e]->(b:N)`)
	mustQuery(t, db, "two", `CREATE (a:M {s: 'v'})`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	stores, err := readSnapshotFile(snapshotPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) != 2 || stores["one"] == nil || stores["two"] == nil {
		t.Fatalf("snapshot stores = %v", stores)
	}
	if !stores["one"].Graph().HasEdge(0, "e", 1) {
		t.Fatal("edge lost through snapshot")
	}
}

func TestSnapshotRejectsTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	db := reopen(t, dir)
	mustQuery(t, db, "g", `CREATE (a:N)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, "extra"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshotFile(path); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("readSnapshotFile = %v, want trailing-garbage error", err)
	}
}

// craftedSnapshots are snapshot files whose header or section length
// promises far more than the file holds.
func craftedSnapshots() map[string][]byte {
	header := func(sections uint32) []byte {
		b := binary.BigEndian.AppendUint16([]byte(snapshotMagic), snapshotVersion)
		return binary.BigEndian.AppendUint32(b, sections)
	}
	section := append(binary.BigEndian.AppendUint32(header(1), 1), 'g')
	return map[string][]byte{
		"2^24 sections":   header(1 << 24),
		"2^32-1 sections": header(math.MaxUint32),
		"1 GiB section":   binary.BigEndian.AppendUint64(section, 1<<30),
	}
}

// craftedJournals are journal files whose last record header promises
// maxJournalRecord bytes that the file does not hold.
func craftedJournals() map[string][]byte {
	huge := binary.BigEndian.AppendUint32(nil, maxJournalRecord)
	huge = append(huge, 0, 0, 0, 0, opCypher)
	good := journalOp{op: opCypher, name: "g", arg: `CREATE (a:N)`}.encode()
	return map[string][]byte{
		"256 MiB record":           huge,
		"good then 256 MiB record": append(good, huge...),
	}
}

// TestOpenBoundsCraftedLengths: Open refuses a snapshot and cuts a
// journal tail whose lengths run past the end of the file, without
// first allocating what they promise; ScanRecords, the leader's journal
// read for a replica, stops at the same boundary.
func TestOpenBoundsCraftedLengths(t *testing.T) {
	bounded := func(t *testing.T, what string, fn func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s allocated %d bytes, want <= 16 MiB", what, got)
		}
	}
	for name, data := range craftedSnapshots() {
		t.Run("snapshot "+name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(snapshotPath(dir, 1), data, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			bounded(t, "Open", func() { _, err = Open(dir) })
			if err == nil {
				t.Fatal("Open accepted the snapshot")
			}
		})
	}
	for name, data := range craftedJournals() {
		t.Run("journal "+name, func(t *testing.T) {
			dir := t.TempDir()
			path := journalPath(dir, 0)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			intact := int64(len(data) - 9) // all but the crafted record
			var recs [][]byte
			var end int64
			var err error
			bounded(t, "ScanRecords", func() { recs, end, err = ScanRecords(path, 0, 1<<30) })
			if err != nil || end != intact || len(recs) != int(min(intact, 1)) {
				t.Fatalf("ScanRecords = %d records to offset %d (%v), want the %d bytes before the crafted record", len(recs), end, err, intact)
			}
			var db *DB
			bounded(t, "Open", func() { db, err = Open(dir) })
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if st, err := os.Stat(path); err != nil || st.Size() != intact {
				t.Fatalf("journal after Open: %v, %v; want its tail cut at %d", st, err, intact)
			}
		})
	}
}
