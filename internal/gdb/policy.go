package gdb

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/obs"
	"mscfpq/internal/plan"
	"mscfpq/internal/store"
)

// Policy is the server-side query governance configuration: limits
// applied to every statement unless the statement overrides them (a
// Cypher TIMEOUT clause tightens or loosens the timeout for one query).
type Policy struct {
	// DefaultTimeout bounds each query's wall-clock execution; 0 means
	// no default (a per-query TIMEOUT clause still applies).
	DefaultTimeout time.Duration
	// MaxWork bounds each query's work budget (relation entries
	// produced across fixpoint iterations); 0 means unlimited.
	MaxWork int64
	// SlowQuery is the duration at or above which a completed query is
	// written to the slow-query log; 0 disables slow logging (aborted
	// queries are still logged).
	SlowQuery time.Duration
	// MaxConcurrent bounds the number of commands the RESP server
	// executes at once; excess commands are shed with a BUSY error
	// instead of queueing unboundedly. 0 means unlimited.
	MaxConcurrent int
	// SaveInterval is the auto-save period of a durable database
	// (Open): a snapshot is cut and the journal rotated this often.
	// 0 disables auto-saving; explicit Save/GRAPH.SAVE still works.
	SaveInterval time.Duration
	// CacheMaxBytes is the byte budget of the query result cache
	// (DESIGN.md §11): results are keyed by (store incarnation, query
	// text) and record the version they were computed at. A result
	// serves another version only when it read nothing but rows of a
	// declared path pattern for fixed sources and no write in between
	// changed those rows; any other result serves its own version only,
	// so it misses after any write. 0 disables caching.
	CacheMaxBytes int64
	// BatchWindow is ignored; set by benchmark/ until ROADMAP item 1
	// drops it. Concurrent same-grammar queries share work through the
	// per-grammar index (DESIGN.md §14), so there is nothing to window.
	//
	// Deprecated: ignored.
	BatchWindow time.Duration
	// Log receives structured slow-query and aborted-query lines; nil
	// disables logging.
	Log *log.Logger
}

// SetPolicy installs the governance policy for subsequent queries.
func (db *DB) SetPolicy(p Policy) {
	db.polMu.Lock()
	db.policy = p
	db.polMu.Unlock()
	db.cache.Configure(p.CacheMaxBytes)
	db.kickAutoSaver()
}

// Policy returns the current governance policy.
func (db *DB) Policy() Policy {
	db.polMu.RLock()
	defer db.polMu.RUnlock()
	return db.policy
}

// QueryContext executes a statement against the named graph under the
// caller's context and the database policy. The effective timeout is
// the statement's TIMEOUT clause if present, the policy default
// otherwise; the policy's work budget always applies. Queries aborted
// by the governor return context.Canceled, context.DeadlineExceeded, or
// exec.ErrBudget. It is QueryCells with the answer cut into Rows.
func (db *DB) QueryContext(ctx context.Context, name, src string) (*QueryResult, error) {
	res, err := db.QueryCells(ctx, name, src)
	if err != nil {
		return nil, err
	}
	res.Rows = plan.CutRows(res.Cells, res.NumRows)
	return res, nil
}

// QueryCells executes a statement like QueryContext but leaves a MATCH
// answer as its cells (QueryResult.Cells and NumRows, Rows nil), all a
// caller that writes the rows out one after another needs. It cuts no
// row headers, so a hit allocates the result alone, whatever its size.
func (db *DB) QueryCells(ctx context.Context, name, src string) (*QueryResult, error) {
	start := time.Now()
	// Pin ONE snapshot for both the cache lookup and the evaluation: the
	// result is exactly the answer for this version even if writes
	// publish newer versions mid-flight.
	var snap *store.Snapshot
	db.mu.RLock()
	s := db.graphs[name]
	db.mu.RUnlock()
	if s != nil {
		snap = s.Snapshot()
	}
	return db.queryAt(ctx, name, src, s, snap, start)
}

// queryAt answers statement src on graph s, nil when it does not exist,
// at the snapshot snap pinned for it; start is when the statement
// arrived. The result cache is looked up by the raw text before
// anything parses it, so a hit, exact or revalidated
// (GraphStore.unchanged), costs the lookup alone. Otherwise src is
// parsed once: a CREATE commits, and a MATCH is evaluated at snap and
// fills the cache. A PROFILE'd MATCH, which GRAPH.PROFILE also sends,
// neither reads nor fills it: it is evaluated so that its span tree,
// rooted at start, is rendered.
func (db *DB) queryAt(ctx context.Context, name, src string, s *GraphStore, snap *store.Snapshot, start time.Time) (*QueryResult, error) {
	var rkey store.Key
	var known bool // rkey has an entry, so Lookup counted the miss
	cacheable := s != nil && db.cache.Enabled()
	if cacheable {
		rkey = store.TextKey(snap.StoreID(), src)
		v, hit, found := db.cache.Lookup(rkey, snap.Version(), func(at uint64, fp *store.Footprint) bool {
			return s.unchanged(snap, at, fp)
		})
		if hit {
			a := v.(*answer)
			obs.GdbQueries.Inc()
			obs.GdbQueryLatencyUS.Observe(time.Since(start).Microseconds())
			return &QueryResult{Columns: a.columns, Cells: a.cells, NumRows: a.rows}, nil
		}
		known = found
	}

	parseStart := time.Now()
	q, err := cypher.Parse(src)
	parseDur := time.Since(parseStart)
	if err != nil {
		return nil, err
	}
	if q.Create != nil {
		return db.write(ctx, name, src, q)
	}
	if s == nil {
		return nil, errNoGraph(name)
	}
	var trace *obs.Trace
	if q.Profile {
		trace = obs.NewTrace(obs.SpanQuery, start)
		trace.AddSpan(obs.SpanParse, parseDur)
		cacheable = false
	} else if cacheable && !known {
		db.cache.Miss()
	}

	var rs *plan.ResultSet
	var fp *store.Footprint
	err = db.serve(ctx, name, src, q, trace, func(run *exec.Run) (err error) {
		rs, fp, err = s.runMatchSnap(snap, q, run)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cacheable {
		a := &answer{columns: rs.Columns, cells: rs.Cells, rows: rs.NumRows}
		db.cache.Put(rkey, a, resultBytes(a, src, fp), snap.StoreID(), snap.Version(), fp)
	}
	res := &QueryResult{Columns: rs.Columns, Cells: rs.Cells, NumRows: rs.NumRows}
	if trace != nil {
		res.Profile = trace.Render()
	}
	return res, nil
}

// write runs the parsed CREATE statement src. Writes are single-pass
// over the pattern list — no fixpoint to govern; it honors an
// already-cancelled context, journals the statement (durable databases
// fsync before acknowledging), and runs.
func (db *DB) write(ctx context.Context, name, src string, q *cypher.Query) (*QueryResult, error) {
	if q.Profile {
		return nil, fmt.Errorf("gdb: PROFILE requires a MATCH query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var res *QueryResult
	var applyErr error
	err := db.commit(journalOp{op: opCypher, name: name, arg: src}, func() {
		res, applyErr = db.runCreate(name, q)
	})
	if err != nil {
		return nil, err
	}
	obs.GdbWrites.Inc()
	return res, applyErr
}

// serve runs one MATCH evaluation under the caller's context, the
// statement's timeout (its TIMEOUT clause, else the policy default) and
// the policy's work budget, then accounts for it: gdb.queries, the
// governor outcome, and the slow-query log when it was slow or aborted.
// trace, if non-nil, records the evaluation's spans and is closed.
func (db *DB) serve(ctx context.Context, name, src string, q *cypher.Query, trace *obs.Trace, eval func(*exec.Run) error) error {
	pol := db.Policy()
	timeout := pol.DefaultTimeout
	if q.TimeoutMS > 0 {
		timeout = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	run, cancel := exec.Options{Ctx: ctx, Timeout: timeout, Budget: pol.MaxWork, Trace: trace}.Start()
	defer cancel()

	start := time.Now()
	err := eval(run)
	elapsed := time.Since(start)
	trace.Close()

	obs.GdbQueries.Inc()
	obs.GdbQueryLatencyUS.Observe(elapsed.Microseconds())
	exec.RecordOutcome(err)

	aborted := err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, exec.ErrBudget))
	if aborted || (pol.SlowQuery > 0 && elapsed >= pol.SlowQuery) {
		status := "slow"
		if aborted {
			status = "aborted"
		}
		obs.GdbSlowQueries.Inc()
		entry := obs.SlowLogEntry{
			Time: start, Graph: name, Query: src,
			Duration: elapsed, Status: status, Work: run.Spent(),
		}
		if err != nil {
			entry.Err = err.Error()
		}
		db.slowLog.Add(entry)
		if pol.Log != nil {
			pol.Log.Printf("slow-query status=%s graph=%q duration=%s timeout=%s work=%d budget=%d err=%v query=%q",
				status, name, elapsed.Round(time.Microsecond), timeout, run.Spent(), pol.MaxWork, err, src)
		}
	}
	return err
}

// answer is a cached MATCH result: its columns and its rows' cells,
// row-major (plan.ResultSet.Cells), with no per-row slice. The cells
// hold no pointers, so the collector marks them without scanning them;
// every hit shares them (QueryResult.Cells).
type answer struct {
	columns []string
	cells   []int64
	rows    int
}

// resultBytes is what a cached answer to statement text holds, charged
// against the cache's byte budget: 8 bytes a cell plus fixed parts.
func resultBytes(a *answer, text string, fp *store.Footprint) int64 {
	b := int64(len(text)) + 96 + 8*int64(len(a.cells))
	if fp != nil {
		b += 4*int64(fp.Sources.NVals()) + 64
	}
	for _, c := range a.columns {
		b += int64(len(c)) + 16
	}
	return b
}
