package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/gdb"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/plan"
	"mscfpq/internal/resp"
)

// Span names. The tree of one request is
//
//	wire ⊃ gdb.query ⊃ { cypher.parse, plan.build, plan.execute ⊃ cfpq.eval }   (read)
//	wire ⊃ gdb.query ⊃ { cypher.parse, gdb.journal }                             (write)
//
// wire is measured on the real server; everything below it is measured
// around public calls on in-process mirrors that are advanced in
// lockstep with the server (same versions, same index warmness, same
// cache policy). Spans inside the server are a later issue.
const (
	spanWire    = "wire"
	spanQuery   = "gdb.query"
	spanParse   = "cypher.parse"
	spanBuild   = "plan.build"
	spanExecute = "plan.execute"
	spanEval    = "cfpq.eval"
	spanJournal = "gdb.journal"
)

// spanParent is the span each span is a child of.
var spanParent = map[string]string{
	spanQuery:   spanWire,
	spanParse:   spanQuery,
	spanBuild:   spanQuery,
	spanExecute: spanQuery,
	spanJournal: spanQuery,
	spanEval:    spanExecute,
}

// span is one interval of one request; spans of a request share Req.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	begin time.Time
	spans []span
	kinds []opKind // kinds[req-1] is the kind of request req
}

// request opens the next request and returns its number (from 1).
func (t *tracer) request(kind opKind) int {
	t.kinds = append(t.kinds, kind)
	return len(t.kinds)
}

func (t *tracer) add(req int, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Req: req, Name: name, Parent: spanParent[name],
		StartNS: start.Sub(t.begin).Nanoseconds(), EndNS: end.Sub(t.begin).Nanoseconds(),
	})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits one request's wire time over its spans. A span's
// self time is its duration minus what its children cover; children
// are measured on other executions than their parent (the mirrors), so
// together they can claim more than the parent lasted — they cover at
// most all of it, and the excess shows up as a negative unattributed
// remainder. By construction self times plus unattributed equal the
// wire span.
func selfTimes(req []span) (self map[string]float64, unattributed float64) {
	dur := map[string]float64{}
	children := map[string]float64{}
	for _, s := range req {
		dur[s.Name] += s.ms()
		if s.Parent != "" {
			children[s.Parent] += s.ms()
		}
	}
	self = map[string]float64{}
	unattributed = dur[spanWire]
	for name, d := range dur {
		self[name] = max(0, d-children[name])
		unattributed -= self[name]
	}
	return self, unattributed
}

// cacheBytes and batchWindow configure the server under test and the
// mirrors alike.
const (
	cacheBytes  = 64 << 20 // gsql-server's default
	batchWindow = 500 * time.Microsecond
)

// mirror is the harness's in-process copy of the server's state.
type mirror struct {
	db  *gdb.DB // answers reads; in-memory, the server's cache policy
	dur *gdb.DB // durable twin that only sees restores and writes: its CREATE minus db's is the journal's cost

	// The pipeline mirror replays gdb's read path through public calls:
	// one PathCtx per graph version, warm-started across versions the
	// way gdb.GraphStore does it.
	ctx        *plan.PathCtx
	ctxVersion uint64

	// The index mirror is fed every query's source set, so timing its
	// MultiSourceSmart isolates the fixpoint the plan runs inside
	// ExecuteWith.
	w          *grammar.WCNF
	idx        *cfpq.Index
	idxVersion uint64
}

func newMirror(dataDir, decl string) (*mirror, error) {
	pol := gdb.Policy{CacheMaxBytes: cacheBytes, BatchWindow: batchWindow}
	m := &mirror{db: gdb.New()}
	m.db.SetPolicy(pol)
	var err error
	if m.dur, err = gdb.Open(dataDir); err != nil {
		return nil, err
	}
	m.dur.SetPolicy(pol)
	// The grammar the server compiles from the declaration, by the same
	// public calls plan.NewPathCtx makes.
	q, err := cypher.Parse(decl + "MATCH (v)-/ ~S /->(to) RETURN v, to")
	if err != nil {
		return nil, err
	}
	cf, err := plan.PatternsToGrammar(q.PathPatterns)
	if err != nil {
		return nil, err
	}
	if m.w, err = grammar.ToWCNF(cf); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *mirror) close() error { return m.dur.Close() }

// traceStats accumulates what the traced requests add beyond spans.
type traceStats struct {
	rows, bytes        int // of read replies
	hitMS, postWriteMS []float64
	rounds, evals      int
	lastWrite          int            // request number of the latest write, 0 before any
	lastRead           map[string]int // text -> request number of its latest read
	mirrorHits         int
	mulNSPerNNZ        float64
}

// apply replays o on the mirrors. For a timed request (req > 0) it
// records the spans below wire.
func (m *mirror) apply(ctx context.Context, o op, req int, tr *tracer, st *traceStats) error {
	text := o.args[2]
	switch o.kind {
	case opRestore:
		if err := m.db.Restore(graphKey, text); err != nil {
			return err
		}
		m.ctx, m.idx = nil, nil
		return m.dur.Restore(graphKey, text)

	case opWrite:
		t0 := time.Now()
		if _, err := m.dur.QueryContext(ctx, graphKey, text); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := m.db.QueryContext(ctx, graphKey, text); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := cypher.Parse(text); err != nil {
			return err
		}
		t3 := time.Now()
		if req > 0 {
			tr.add(req, spanQuery, t0, t1)
			tr.add(req, spanParse, t2, t3)
			// The journal's share of the durable CREATE is what the
			// in-memory CREATE does not spend.
			journal := max(0, t1.Sub(t0)-t2.Sub(t1))
			tr.add(req, spanJournal, t0, t0.Add(journal))
		}
		return nil
	}

	hitsBefore := m.db.Cache().Stats().Hits
	t0 := time.Now()
	res, err := m.db.QueryContext(ctx, graphKey, text)
	t1 := time.Now()
	if err != nil {
		return err
	}
	got, err := resultDigest(res.Rows, o.count)
	if err != nil {
		return err
	}
	if got != o.want {
		return fmt.Errorf("mirror answered %d rows, reference %d", got.n, o.want.n)
	}
	hit := m.db.Cache().Stats().Hits > hitsBefore

	t2 := time.Now()
	q, err := cypher.Parse(text)
	t3 := time.Now()
	if err != nil {
		return err
	}
	if req > 0 {
		tr.add(req, spanQuery, t0, t1)
		tr.add(req, spanParse, t2, t3)
	}
	if hit {
		st.mirrorHits++
		return nil
	}

	s, err := m.db.Get(graphKey)
	if err != nil {
		return err
	}
	snap := s.Snapshot()
	g, version := snap.Graph(), snap.Version()

	t4 := time.Now()
	pctx, err := m.pathCtx(g, version, q)
	if err != nil {
		return err
	}
	p, err := plan.BuildWithCtx(q, plan.NewEnv(g, nil, snap), pctx)
	t5 := time.Now()
	if err != nil {
		return err
	}
	if _, err := p.ExecuteWith(); err != nil {
		return err
	}
	t6 := time.Now()
	if req > 0 {
		tr.add(req, spanBuild, t4, t5)
		tr.add(req, spanExecute, t5, t6)
	}

	// plan.PathCtx hands the index only the sources it has not
	// processed yet, and skips the call when there are none.
	if err := m.index(g, version); err != nil {
		return err
	}
	fresh := matrix.NewVectorFromIndices(g.NumVertices(), o.src)
	fresh.DiffInPlace(m.idx.ProcessedSources(m.w.Start))
	if fresh.Empty() {
		return nil
	}
	t7 := time.Now()
	ms, err := m.idx.MultiSourceSmart(fresh)
	t8 := time.Now()
	if err != nil {
		return err
	}
	if req > 0 {
		tr.add(req, spanEval, t7, t8)
		st.rounds += ms.Rounds
		st.evals++
	}
	return nil
}

// pathCtx follows gdb.GraphStore.pathCtxFor: reuse at the same version,
// warm-start into a newer one, build cold otherwise.
func (m *mirror) pathCtx(g *graph.Graph, version uint64, q *cypher.Query) (*plan.PathCtx, error) {
	if m.ctx != nil && m.ctxVersion == version {
		return m.ctx, nil
	}
	var err error
	if m.ctx != nil {
		m.ctx, err = m.ctx.WarmSuccessor(g)
	} else {
		m.ctx, err = plan.NewPathCtx(g, q.PathPatterns)
	}
	m.ctxVersion = version
	return m.ctx, err
}

// index keeps the index mirror at the given version, untimed: on the
// server this work is part of plan.build.
func (m *mirror) index(g *graph.Graph, version uint64) error {
	if m.idx != nil && m.idxVersion == version {
		return nil
	}
	var err error
	if m.idx != nil {
		m.idx, err = cfpq.NewIndexWarm(g, m.w, m.idx)
	} else {
		m.idx, err = cfpq.NewIndex(g, m.w)
	}
	m.idxVersion = version
	return err
}

// mulNSPerNNZ times one Boolean product of the size the fixpoint makes
// at its end: the index's start relation by the subClassOf edge matrix.
func (m *mirror) mulNSPerNNZ() float64 {
	if m.idx == nil {
		return 0
	}
	rel := m.idx.Relation(m.w.Start)
	edges := m.idx.G.EdgeMatrix("subClassOf")
	t := time.Now()
	prod := matrix.Mul(rel, edges)
	ns := float64(time.Since(t).Nanoseconds())
	if prod.NVals() == 0 {
		return 0
	}
	return ns / float64(prod.NVals())
}

// countWriter counts the bytes of a re-encoded reply.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

func encodedLen(v resp.Value) int {
	var c countWriter
	w := bufio.NewWriter(&c)
	if err := resp.Write(w, v); err != nil {
		return 0 // a counting writer cannot fail; a value that was just decoded encodes
	}
	_ = w.Flush()
	return c.n
}

// tracedRound runs units on one fresh server with the mirrors in
// lockstep: one request at a time, connections taken in turn, each
// request replayed on the mirrors before the next is sent.
func (r *runner) tracedRound(us []unit, tr *tracer, st *traceStats) (*roundResult, error) {
	// The mirrors stand in for the server, so they run under the
	// collector pacing the server runs under (main turns it down for the
	// harness's own sake; nothing is timed concurrently here).
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	res := &roundResult{}
	tgt, err := r.start(r.ctx)
	if err != nil {
		return nil, err
	}
	defer tgt.stop()
	clients, closeAll, err := dial(tgt.addr, len(us[0].conns))
	if err != nil {
		return nil, err
	}
	defer closeAll()
	dir, err := os.MkdirTemp(r.scratch, "mirror-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := newMirror(dir, r.b.wl.decl)
	if err != nil {
		return nil, err
	}
	defer m.close()

	for _, u := range us {
		if err := runPrelude(clients[0], u.prelude); err != nil {
			return nil, err
		}
		for _, o := range u.prelude {
			if err := m.apply(r.ctx, o, 0, tr, st); err != nil {
				return nil, fmt.Errorf("mirror: untimed %s: %w", o.args[0], err)
			}
		}
		for j := 0; ; j++ {
			sent := false
			for c, script := range u.conns {
				if j >= len(script) {
					continue
				}
				sent = true
				o := script[j]
				if err := r.ctx.Err(); err != nil {
					return nil, err
				}
				req := tr.request(o.kind)
				t0 := time.Now()
				v, err := clients[c].Do(o.args...)
				t1 := time.Now()
				res.attempted++
				if bad := checkReply(o, v, err); bad != nil {
					// The mirrors cannot follow a server that answered
					// wrongly; the traced run ends here as a failure.
					res.failed++
					res.firstErr = fmt.Errorf("connection %d op %d: %w", c, j, bad)
					return res, nil
				}
				tr.add(req, spanWire, t0, t1)
				ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
				res.samples = append(res.samples, sample{kind: o.kind, ms: ms})
				hitsBefore := st.mirrorHits
				if err := m.apply(r.ctx, o, req, tr, st); err != nil {
					return nil, fmt.Errorf("mirror: connection %d op %d: %w", c, j, err)
				}
				switch o.kind {
				case opWrite:
					st.lastWrite = req
				case opRead:
					st.rows += len(v.Array[1].Array)
					st.bytes += encodedLen(v)
					text := o.args[2]
					if st.mirrorHits > hitsBefore {
						st.hitMS = append(st.hitMS, ms)
					} else if st.lastWrite > 0 && st.lastRead[text] < st.lastWrite {
						st.postWriteMS = append(st.postWriteMS, ms)
					}
					st.lastRead[text] = req
				}
			}
			if !sent {
				break
			}
		}
		// The next unit restores: its first reads are cold, not post-write.
		st.lastWrite, st.lastRead = 0, map[string]int{}
	}
	st.mulNSPerNNZ = m.mulNSPerNNZ()
	return res, nil
}
