package gdb

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"mscfpq/internal/fault"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
)

// The chaos suite: for every failpoint in the durability write paths,
// fail (or tear, or crash at) that step mid-workload, simulate a
// process crash by abandoning the DB, and assert that recovery
// restores exactly the acknowledged state — optionally plus the one
// in-flight operation, never less, never garbage.

// chaosFailpoints enumerates the durability failpoints; the suite
// refuses to run against a shrunken list so a renamed point cannot
// silently drop its coverage.
func chaosFailpoints(t *testing.T) []string {
	t.Helper()
	var pts []string
	for _, n := range fault.Names() {
		if strings.HasPrefix(n, "gdb.snapshot.") || strings.HasPrefix(n, "gdb.journal.") {
			pts = append(pts, n)
		}
	}
	if len(pts) < 8 {
		t.Fatalf("chaos suite found only %v — durability failpoints are missing", pts)
	}
	return pts
}

// saveFailpoint reports whether the point fires during Save (snapshot
// cutting and journal rotation) rather than during a mutation's
// journal append.
func saveFailpoint(fp string) bool {
	return strings.HasPrefix(fp, "gdb.snapshot.") || fp == FPJournalRotate
}

// tearableFailpoint reports whether the point streams bytes through
// fault.Writer, making torn-write specs meaningful.
func tearableFailpoint(fp string) bool {
	return fp == FPJournalAppend || fp == FPSnapshotWrite
}

func TestChaosCrashRecoveryAtEveryFailpoint(t *testing.T) {
	specs := []struct {
		name string
		spec fault.Spec
	}{
		{"error", fault.Spec{Err: errors.New("chaos: injected disk failure")}},
		{"torn-after-3", fault.Spec{TruncateAfter: 3}},
		{"torn-after-17", fault.Spec{TruncateAfter: 17}},
	}
	for _, fp := range chaosFailpoints(t) {
		for _, sc := range specs {
			if sc.spec.TruncateAfter > 0 && !tearableFailpoint(fp) {
				continue
			}
			t.Run(fp+"/"+sc.name, func(t *testing.T) {
				chaosFailScenario(t, fp, sc.spec)
			})
		}
	}
}

// chaosFailScenario drives one failpoint through the full life cycle:
// acked history across a snapshot boundary, a failing operation, more
// acked history after the failure (the database must stay usable and
// those later records must stay reachable), then crash + recover +
// keep writing.
func chaosFailScenario(t *testing.T, fp string, spec fault.Spec) {
	defer fault.Reset()
	dir := t.TempDir()
	db := reopen(t, dir)

	// Acknowledged history crossing a snapshot boundary, so the
	// failure strikes a mid-life store, not a fresh one.
	mustQuery(t, db, "g", `CREATE (a:N {name: 'a0'})-[:a]->(b:N), (b)-[:b]->(c:N)`)
	mustQuery(t, db, "h", `CREATE (x:M)-[:e]->(y:M)`)
	if err := db.Save(); err != nil {
		t.Fatalf("unarmed Save: %v", err)
	}
	mustQuery(t, db, "g", `CREATE (p:P {k: 1})`)

	// The operation under fault must fail and must not corrupt state.
	disarm := fault.Enable(fp, spec)
	var opErr error
	if saveFailpoint(fp) {
		opErr = db.Save()
	} else {
		_, opErr = db.Query("g", `CREATE (q:Q {k: 2})`)
	}
	disarm()
	if fault.Hits(fp) == 0 {
		t.Fatalf("failpoint %s was never reached", fp)
	}
	if opErr == nil {
		t.Fatalf("failpoint %s fired but the operation succeeded", fp)
	}

	// The database stays usable after the failure, and records acked
	// now must survive recovery even though a torn/partial record may
	// have preceded them (the append rollback guarantees this).
	mustQuery(t, db, "g", `CREATE (r:R {k: 3})`)
	want := dumpAll(t, db)

	// Crash (abandon db without Close) and recover.
	db2 := reopen(t, dir)
	sameState(t, want, dumpAll(t, db2))

	// The recovered database accepts and persists new writes.
	mustQuery(t, db2, "h", `CREATE (z:Z)`)
	db3 := reopen(t, dir)
	sameState(t, dumpAll(t, db2), dumpAll(t, db3))
}

// TestChaosCrashAtEveryFailpoint simulates the harshest case: the
// process dies AT the failpoint (a panic unwinds past every cleanup
// path), leaving files exactly as a kill -9 at that instant would.
// Recovery must surface either the acked state or — when the crash
// struck after the journal bytes reached the file — the acked state
// plus the one in-flight operation. Never anything else.
func TestChaosCrashAtEveryFailpoint(t *testing.T) {
	for _, fp := range chaosFailpoints(t) {
		t.Run(fp, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			db := reopen(t, dir)
			mustQuery(t, db, "g", `CREATE (a:N)-[:a]->(b:N), (b)-[:b]->(c:N)`)
			if err := db.Save(); err != nil {
				t.Fatalf("unarmed Save: %v", err)
			}
			mustQuery(t, db, "h", `CREATE (x:M)`)
			acked := dumpAll(t, db)

			// The in-flight mutation may legitimately survive a crash
			// that struck after its journal record was written.
			const inflight = `CREATE (q:Q {k: 2})`
			ackedPlus := map[string]string{}
			{
				alt := New()
				for name, d := range acked {
					if err := alt.Restore(name, d); err != nil {
						t.Fatal(err)
					}
				}
				mustQuery(t, alt, "g", inflight)
				ackedPlus = dumpAll(t, alt)
			}

			disarm := fault.Enable(fp, fault.Spec{Panic: "chaos: crash here"})
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				if saveFailpoint(fp) {
					// The panic preempts the return; there is no error to read.
					_ = db.Save()
				} else {
					// Ditto.
					_, _ = db.Query("g", inflight)
				}
				return false
			}()
			disarm()
			if !panicked {
				t.Fatalf("failpoint %s did not crash the operation", fp)
			}

			// db is now a corpse mid-operation; abandon it and recover.
			got := dumpAll(t, reopen(t, dir))
			if !reflect.DeepEqual(got, acked) && !reflect.DeepEqual(got, ackedPlus) {
				t.Fatalf("recovery after crash at %s produced neither the acked state nor acked+in-flight:\ngot: %v\nacked: %v", fp, got, acked)
			}
		})
	}
}

// TestChaosRecoveryMatchesOracle closes the loop with the paper's
// semantics: a graph built through journaled Cypher survives a torn
// crash, and the recovered store's context-free path query returns
// exactly the reachability relation the reference CYK oracle computes
// for S -> a S b | a b on the same graph.
func TestChaosRecoveryMatchesOracle(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	db := reopen(t, dir)

	// An a-cycle of length 2 feeding a b-cycle of length 3 — nested
	// a^n b^n matches wrap both cycles, so the answer is not a toy.
	mustQuery(t, db, "anbn", `CREATE (v0)-[:a]->(v1), (v1)-[:a]->(v0), (v0)-[:b]->(v2), (v2)-[:b]->(v3), (v3)-[:b]->(v0)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, "anbn", `CREATE (v1b)-[:b]->(v1c)`) // journal-only tail

	// Tear the next append mid-record and crash.
	disarm := fault.Enable(FPJournalAppend, fault.Spec{TruncateAfter: 5})
	if _, err := db.Query("anbn", `CREATE (w)-[:a]->(w2)`); err == nil {
		t.Fatal("torn append was acknowledged")
	}
	disarm()
	db2 := reopen(t, dir)

	got := rows(t, db2, "anbn", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)

	// The oracle runs on the same graph built directly: vertices are
	// numbered in order of first appearance in the CREATE statements.
	g := graph.New(6)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 0)
	g.AddEdge(0, "b", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	g.AddEdge(4, "b", 5)
	w := grammar.MustWCNF(grammar.MustParse("S -> a S b | a b"))
	want := oracle.CFPQ(g, w).StartPairs()

	if len(got) != len(want) {
		t.Fatalf("recovered query returned %d pairs, oracle %d\ngot: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i, p := range want {
		if got[i][0] != int64(p[0]) || got[i][1] != int64(p[1]) {
			t.Fatalf("pair %d: got %v, oracle wants %v", i, got[i], p)
		}
	}
	if len(want) == 0 {
		t.Fatal("oracle relation is empty — the scenario lost its teeth")
	}
}

// FuzzRecoverJournal feeds arbitrary bytes to recovery as the journal
// paired with an empty store: Open must never panic, and whenever it
// succeeds a second Open over the recovered directory must agree —
// truncated tails stay truncated — and ScanRecords, what a leader
// ships to its replicas, must have read the same records recovery
// kept, each one decoding.
func FuzzRecoverJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'Q'})
	f.Add(journalOp{op: opCypher, name: "g", arg: `CREATE (a:N)`}.encode())
	f.Add(journalOp{op: opDelete, name: "g"}.encode()[:7])
	for _, data := range craftedJournals() {
		f.Add(data)
	}
	// An intact record, then one whose CRC holds but whose opcode is
	// unknown: recovery and ScanRecords both stop before the second.
	good := journalOp{op: opCypher, name: "g", arg: `CREATE (a:N)`}.encode()
	f.Add(append(good, journalOp{op: 'X', name: "g"}.encode()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := journalPath(dir, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, end, err := ScanRecords(path, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		var shipped int64
		for _, raw := range recs {
			if _, err := decodeFramedRecord(raw); err != nil {
				t.Fatalf("ScanRecords returned a record that does not decode: %v", err)
			}
			shipped += int64(len(raw))
		}
		if shipped != end {
			t.Fatalf("ScanRecords returned %d record bytes but ended at offset %d", shipped, end)
		}
		db, err := Open(dir)
		if err != nil {
			return
		}
		if _, off := db.ReplPosition(); off != shipped {
			t.Fatalf("recovery kept %d journal bytes, ScanRecords %d", off, shipped)
		}
		first := dumpAll(t, db)
		if err := db.Close(); err != nil {
			t.Fatalf("Close after fuzzed recovery: %v", err)
		}
		db2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open diverged: %v", err)
		}
		defer db2.Close()
		if !reflect.DeepEqual(first, dumpAll(t, db2)) {
			t.Fatal("recovery is not idempotent over a fuzzed journal")
		}
	})
}

// FuzzRecoverSnapshot feeds arbitrary bytes to snapshot validation:
// readSnapshotFile (via Open's fallback scan) must never panic and
// must reject damage rather than load garbage.
func FuzzRecoverSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("MSCFPQSNAP\x00\x01\x00\x00\x00\x01"))
	for _, data := range craftedSnapshots() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(snapshotPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			return // rejected damage: the contract for arbitrary bytes
		}
		// Fuzz cleanup; the store was already validated by Open.
		defer db.Close()
		dumpAll(t, db)
	})
}
