//go:build !nofault

package gdb

import (
	"errors"
	"testing"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/obs"
	"mscfpq/internal/store"
)

// TestColdRebuildKeepsRevalidation forces the path where carrying a
// cached path-pattern context over to a newer version fails: the
// context is rebuilt cold and gdb.ctx.cold_rebuilds counts it once. A
// cached answer does not depend on the context for its revalidation,
// so it survives the write, and the next one, either way.
func TestColdRebuildKeepsRevalidation(t *testing.T) {
	defer fault.Reset()
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	p := cacheProbe{t: t, db: db, s: db.AddGraph("g", revalidateGraph())}
	qA, qB := sourcesQuery(0, 1), sourcesQuery(10)
	p.expect(qA, nil, missed)

	rebuilds := obs.GdbCtxColdRebuilds.Value()
	off := fault.Enable(FPCtxWarm, fault.Spec{Err: errors.New("injected warm-start failure"), Times: 1})
	if _, err := db.Query("g", `CREATE (x:N)-[:a]->(y:N)`); err != nil {
		t.Fatal(err)
	}
	p.expect(qA, nil, revalidated)
	p.expect(qB, nil, missed) // carries the context: the failpoint fires
	off()
	if fault.Hits(FPCtxWarm) == 0 {
		t.Fatal("warm-start failpoint never fired")
	}
	if got := obs.GdbCtxColdRebuilds.Value() - rebuilds; got != 1 {
		t.Fatalf("gdb.ctx.cold_rebuilds rose by %d, want 1", got)
	}

	if _, err := db.Query("g", `CREATE (x:N)-[:a]->(y:N)`); err != nil {
		t.Fatal(err)
	}
	p.expect(qA, nil, revalidated)
	p.expect(qB, nil, revalidated)
	if got := obs.GdbCtxColdRebuilds.Value() - rebuilds; got != 1 {
		t.Fatalf("a working warm start counted as a cold rebuild (%d)", got)
	}
}

// TestStressContextsAdvanceIndependently: carrying one declaration
// set's context over to a newer version, which runs a fixpoint, holds
// only that context's lock. While it is stalled, a query with other
// declarations on the same store plans and answers.
func TestStressContextsAdvanceIndependently(t *testing.T) {
	defer fault.Reset()
	db := New()
	s := db.AddGraph("g", revalidateGraph())
	qA := sourcesQuery(0, 1)
	qOther := `PATH PATTERN P = ()-/ [:a :b] /->() MATCH (v)-/ ~P /->(to) WHERE id(v) IN [1, 10] RETURN v, to`
	if _, err := db.Query("g", qA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddEdge(2, "b", 12)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const stall = 500 * time.Millisecond
	defer fault.Enable(FPCtxWarm, fault.Spec{Delay: stall, Times: 1})()
	advanced := make(chan error, 1)
	go func() {
		_, err := db.Query("g", qA)
		advanced <- err
	}()
	for fault.Hits(FPCtxWarm) == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	res, err := db.Query("g", qOther)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited >= stall/2 {
		t.Fatalf("a query on other declarations waited %v behind a stalled warm start", waited)
	}
	if got := sortedPairs(pairsFromRows(res.Rows)); !pairsEqual(got, [][2]int{{1, 3}, {1, 12}, {10, 12}}) {
		t.Fatalf("other declarations answered %v", got)
	}
	select {
	case err := <-advanced:
		t.Fatalf("stalled warm start finished early: %v", err)
	default:
	}
	if err := <-advanced; err != nil {
		t.Fatal(err)
	}
}
