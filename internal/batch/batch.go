// Package batch coalesces concurrent multiple-source CFPQ queries into
// shared fixpoints. The paper's central observation — the multiple-
// source algorithm amortizes the matrix fixpoint across source vertices
// — becomes a server-side throughput lever here: in-flight queries that
// agree on (snapshot version + store incarnation, grammar, algorithm,
// limits) are grouped within a short admission window, their source
// sets are unioned into one matrix.Vector, a single governed fixpoint
// answers the union, and each waiter gets exactly the rows of its own
// sources scattered back (DESIGN.md §14).
//
// Admission is adaptive: a lone query never waits — a window only opens
// when another evaluation with the same key is already in flight, so
// the uncontended path has zero added latency.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
	"mscfpq/internal/store"
)

// Request describes one multiple-source CFPQ evaluation submitted to
// the coalescer. Every field that shapes the answer or the governance
// of the run participates in the group key, so members of one group are
// interchangeable up to their source sets.
type Request struct {
	// StoreID and Version identify the pinned snapshot the evaluation
	// must answer for. A batch never mixes versions or incarnations.
	StoreID uint64
	Version uint64
	// Graph is the immutable graph of that (StoreID, Version) snapshot.
	Graph *graph.Graph
	// WCNF is the query grammar. Members of one group may hold distinct
	// WCNF pointers: equality of the α-renaming-invariant GrammarHash
	// guarantees identical answer pairs regardless of which member's
	// grammar object runs.
	WCNF *grammar.WCNF
	// Sources is the query's source-vertex set (never nil).
	Sources *matrix.Vector
	// Algorithm selects the evaluator; AlgAuto resolves to
	// AlgMultiSource (a source set is always present here), matching
	// cfpq.Eval and store.CachedEval so cache keys line up.
	Algorithm exec.Algorithm
	// Timeout and Budget are the per-member governance limits. They are
	// part of the group key, so one shared exec.Run governs the batch
	// with Budget × members and the member share is attributed
	// proportionally to its source count.
	Timeout time.Duration
	Budget  int64
	// Trace, when non-nil, receives batch.wait / batch.run spans for
	// this member. Never shared across members.
	Trace *obs.Trace
	// GrammarHash optionally carries a precomputed store.GrammarHash of
	// WCNF; empty means the coalescer hashes on admission.
	GrammarHash string
}

// Stats describes how one member's answer was produced.
type Stats struct {
	// Algorithm is the algorithm that ran (AlgAuto resolved).
	Algorithm exec.Algorithm
	// Batched reports whether the answer came from a shared fixpoint.
	Batched bool
	// Members is the group size (1 for a solo run).
	Members int
	// Rounds is the fixpoint round count of the (shared) evaluation.
	Rounds int
	// Work is this member's attributed governor charge: the full charge
	// for a solo run, the share proportional to its source count for a
	// batched one.
	Work int64
}

// CoalescerStats is a point-in-time snapshot of the scheduler counters
// (process-global equivalents live in the obs registry as batch.*).
type CoalescerStats struct {
	// Groups is the number of shared fixpoints run; Members the total
	// waiters they answered; Solo the evaluations that took the
	// uncontended fast path; Aborted the groups whose every member was
	// cancelled before the fixpoint started.
	Groups, Members, Solo, Aborted uint64
	// SourcesDeduped counts source vertices saved by unioning
	// (sum of member source counts minus union sizes).
	SourcesDeduped uint64
	// OpenGroups and InFlight describe the current instant: groups still
	// admitting, and solo/flushed evaluations currently running.
	OpenGroups, InFlight int
}

// Coalescer is the admission scheduler. One instance serves a whole
// database; it is safe for concurrent use.
type Coalescer struct {
	// cache, when non-nil and enabled, is seeded after every evaluation
	// with per-member and per-source EvalKey entries. Set once at
	// construction, immutable afterwards (internally synchronized).
	cache *store.Cache

	mu         sync.Mutex
	window     time.Duration     // guarded by mu: 0 disables coalescing
	maxSources int               // guarded by mu: union cap per group, 0 = uncapped
	groups     map[string]*group // guarded by mu: open groups by key
	inflight   map[string]int    // guarded by mu: running evaluations by key
	stats      CoalescerStats    // guarded by mu (counter part only)
}

// NewCoalescer returns a disabled coalescer (window 0: every query runs
// solo) that seeds cache when enabled. cache may be nil.
func NewCoalescer(cache *store.Cache) *Coalescer {
	return &Coalescer{
		cache:    cache,
		groups:   map[string]*group{},
		inflight: map[string]int{},
	}
}

// Configure installs the admission window and the union-size cap.
// window 0 disables coalescing entirely; maxSources 0 leaves the union
// uncapped (a group flushes only when its window expires).
func (c *Coalescer) Configure(window time.Duration, maxSources int) {
	c.mu.Lock()
	c.window, c.maxSources = window, maxSources
	c.mu.Unlock()
}

// Stats snapshots the scheduler counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.OpenGroups = len(c.groups)
	for _, n := range c.inflight {
		s.InFlight += n
	}
	return s
}

// member is one waiter of a group. The flusher goroutine owns the
// result fields; waiters read them only after done is closed (the
// channel close is the happens-before edge).
type member struct {
	req   Request
	ctx   context.Context
	pairs [][2]int
	stats Stats
	err   error
}

// group is one admission window's worth of coalesced requests. The
// members/union/closed fields are guarded by the Coalescer's mu while
// the group is open; once closed (removed from Coalescer.groups) the
// flusher goroutine owns them exclusively.
type group struct {
	key     string
	members []*member
	union   *matrix.Vector
	srcSum  int  // sum of member source counts before dedup
	closed  bool // no longer admitting; flush owns the group
	done    chan struct{}
	runDur  time.Duration // set by the flusher before done closes

	// Liveness: the batch fixpoint is cancelled only when every member's
	// context has died — one member cancelling must not abort answers
	// the rest are still waiting for.
	gmu    sync.Mutex
	live   int                // guarded by gmu
	cancel context.CancelFunc // guarded by gmu: set once the fixpoint starts
}

// memberGone records one member's context ending; the last one out
// cancels the shared fixpoint.
func (g *group) memberGone() {
	g.gmu.Lock()
	g.live--
	lastOut := g.live <= 0
	cancel := g.cancel
	g.gmu.Unlock()
	if lastOut && cancel != nil {
		cancel()
	}
}

// arm publishes the fixpoint's cancel function; it reports false when
// every member already left (the flush should abort without running).
func (g *group) arm(cancel context.CancelFunc) bool {
	g.gmu.Lock()
	defer g.gmu.Unlock()
	if g.live <= 0 {
		return false
	}
	g.cancel = cancel
	return true
}

// resolveAlg mirrors cfpq.Eval's AlgAuto resolution for the
// sources-present shape, keeping group keys and cache keys aligned.
func resolveAlg(a exec.Algorithm) exec.Algorithm {
	if a == exec.AlgAuto {
		return exec.AlgMultiSource
	}
	return a
}

// keyFor fingerprints everything two requests must agree on to share a
// fixpoint. Source sets are deliberately absent — they are what a group
// unions.
func keyFor(req Request, alg exec.Algorithm) string {
	h := req.GrammarHash
	if h == "" {
		h = store.GrammarHash(req.WCNF)
	}
	return fmt.Sprintf("%d|%d|%s|%d|%d|%d",
		req.StoreID, req.Version, h, alg, req.Timeout, req.Budget)
}

// Eval answers one multiple-source CFPQ request, coalescing it with
// concurrent same-key requests when the admission window is open.
// The fast path — no same-key evaluation in flight, or coalescing
// disabled — runs the query immediately with no added latency.
func (c *Coalescer) Eval(ctx context.Context, req Request) ([][2]int, Stats, error) {
	if req.Graph == nil || req.WCNF == nil || req.Sources == nil {
		return nil, Stats{}, fmt.Errorf("batch: request needs graph, grammar and sources")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	alg := resolveAlg(req.Algorithm)
	key := keyFor(req, alg)

	c.mu.Lock()
	// Join an open group for this key.
	if g := c.groups[key]; g != nil && !g.closed {
		m := c.admitLocked(g, req, ctx, alg)
		flushNow := g.closed // admission may have hit the union cap
		c.mu.Unlock()
		if flushNow {
			c.flush(g, key)
		}
		return c.wait(ctx, g, m)
	}
	// Open a window: only under concurrency (a same-key evaluation is
	// already running) and only when coalescing is enabled.
	if c.window > 0 && c.inflight[key] > 0 {
		g := &group{key: key, union: matrix.NewVector(req.Sources.Size()), done: make(chan struct{})}
		m := c.admitLocked(g, req, ctx, alg)
		if !g.closed {
			c.groups[key] = g
			window := c.window
			c.mu.Unlock()
			time.AfterFunc(window, func() { c.flushAfterWindow(g, key) })
		} else {
			// The very first member already filled the union cap.
			c.mu.Unlock()
			c.flush(g, key)
		}
		return c.wait(ctx, g, m)
	}
	// Fast path: run solo, leaving a marker so overlapping arrivals know
	// to open a window.
	c.inflight[key]++
	c.stats.Solo++
	window := c.window
	c.mu.Unlock()
	obs.BatchSolo.Inc()
	if window > 0 {
		// Publish-then-yield: peers woken alongside us (e.g. by a flush
		// they all waited on) are runnable but, on a saturated machine,
		// not yet running. One scheduling point lets them observe the
		// in-flight marker and pile into a window that flushes after
		// this run, instead of starving into serial solos. A truly lone
		// query yields to an empty run queue — no added latency.
		runtime.Gosched()
	}
	pairs, stats, err := c.evalSolo(ctx, req, alg)
	c.mu.Lock()
	c.inflight[key]--
	c.mu.Unlock()
	return pairs, stats, err
}

// RunBatch evaluates reqs as one forced group — no admission window,
// every request a member — and returns each member's scattered answer
// in request order. It is the deterministic core the adaptive scheduler
// drives; tests and the differential harness call it directly.
func (c *Coalescer) RunBatch(ctx context.Context, reqs []Request) ([][][2]int, []Stats, error) {
	if len(reqs) == 0 {
		return nil, nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	alg := resolveAlg(reqs[0].Algorithm)
	key := keyFor(reqs[0], alg)
	g := &group{key: key, union: matrix.NewVector(reqs[0].Sources.Size()), done: make(chan struct{})}
	c.mu.Lock()
	for _, req := range reqs {
		if req.Graph == nil || req.WCNF == nil || req.Sources == nil {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("batch: request needs graph, grammar and sources")
		}
		if k := keyFor(req, resolveAlg(req.Algorithm)); k != key {
			c.mu.Unlock()
			return nil, nil, fmt.Errorf("batch: mixed group keys %q vs %q", key, k)
		}
		m := &member{req: req, ctx: ctx, stats: Stats{Algorithm: alg}}
		g.members = append(g.members, m)
		g.srcSum += req.Sources.NVals()
		g.union.UnionInPlace(req.Sources)
		g.gmu.Lock()
		g.live++
		g.gmu.Unlock()
	}
	g.closed = true
	c.inflight[key]++
	c.mu.Unlock()
	// All members share the caller's context: its death empties the
	// group and cancels the fixpoint.
	stop := context.AfterFunc(ctx, func() {
		g.gmu.Lock()
		g.live = 0
		cancel := g.cancel
		g.gmu.Unlock()
		if cancel != nil {
			cancel()
		}
	})
	defer stop()
	c.flush(g, key)
	pairs := make([][][2]int, len(g.members))
	stats := make([]Stats, len(g.members))
	var firstErr error
	for i, m := range g.members {
		pairs[i], stats[i] = m.pairs, m.stats
		if m.err != nil && firstErr == nil {
			firstErr = m.err
		}
	}
	return pairs, stats, firstErr
}

// admitLocked adds a request to an open group, closing the group when
// the union reaches the source cap. Callers hold c.mu.
func (c *Coalescer) admitLocked(g *group, req Request, ctx context.Context, alg exec.Algorithm) *member {
	m := &member{req: req, ctx: ctx, stats: Stats{Algorithm: alg}}
	g.members = append(g.members, m)
	g.srcSum += req.Sources.NVals()
	g.union.UnionInPlace(req.Sources)
	g.gmu.Lock()
	g.live++
	g.gmu.Unlock()
	if c.maxSources > 0 && g.union.NVals() >= c.maxSources {
		c.closeGroupLocked(g)
	}
	return m
}

// closeGroupLocked transitions a group from admitting to flushing: it
// stops accepting members and registers the upcoming run as in flight.
// Callers hold c.mu; the actual flush happens outside the lock.
func (c *Coalescer) closeGroupLocked(g *group) {
	g.closed = true
	delete(c.groups, g.key)
	c.inflight[g.key]++
}

// flushAfterWindow is the admission timer's callback. A group already
// closed by the union cap is someone else's to flush.
func (c *Coalescer) flushAfterWindow(g *group, key string) {
	c.mu.Lock()
	if g.closed {
		c.mu.Unlock()
		return
	}
	c.closeGroupLocked(g)
	c.mu.Unlock()
	c.flush(g, key)
}

// wait blocks until the member's group has flushed or the member's own
// context dies. A member leaving early does not abort the group unless
// it was the last one alive.
func (c *Coalescer) wait(ctx context.Context, g *group, m *member) ([][2]int, Stats, error) {
	start := time.Now()
	stop := context.AfterFunc(ctx, g.memberGone)
	defer stop()
	select {
	case <-g.done:
		if m.err == nil && m.req.Trace != nil {
			m.req.Trace.AddSpan(obs.SpanBatchWait, time.Since(start)-g.runDur)
			m.req.Trace.AddSpan(obs.SpanBatchRun, g.runDur)
		}
		return m.pairs, m.stats, m.err
	case <-ctx.Done():
		return nil, m.stats, ctx.Err()
	}
}

// flush runs a closed group's shared fixpoint and scatters the answer.
func (c *Coalescer) flush(g *group, key string) {
	defer func() {
		c.mu.Lock()
		c.inflight[key]--
		c.mu.Unlock()
		close(g.done)
	}()
	first := g.members[0].req
	alg := g.members[0].stats.Algorithm
	batchCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !g.arm(cancel) {
		// Every member was cancelled during the admission window; there
		// is nobody left to answer.
		for _, m := range g.members {
			m.err = context.Canceled
		}
		c.mu.Lock()
		c.stats.Aborted++
		c.mu.Unlock()
		obs.BatchAborted.Inc()
		return
	}
	n := len(g.members)
	deduped := g.srcSum - g.union.NVals()
	c.mu.Lock()
	c.stats.Groups++
	c.stats.Members += uint64(n)
	c.stats.SourcesDeduped += uint64(deduped)
	c.mu.Unlock()
	obs.BatchGroups.Inc()
	obs.BatchMembers.Add(int64(n))
	obs.BatchMembersPerGroup.Observe(int64(n))
	obs.BatchSourcesDeduped.Add(int64(deduped))

	// One governed run for the whole group: the budget scales with the
	// membership so no member is charged for its neighbors' work up
	// front; the attribution below splits the actual charge.
	opts := []cfpq.Option{cfpq.WithContext(batchCtx), cfpq.WithAlgorithm(alg)}
	if first.Timeout > 0 {
		opts = append(opts, cfpq.WithTimeout(first.Timeout))
	}
	if first.Budget > 0 {
		opts = append(opts, cfpq.WithBudget(first.Budget*int64(n)))
	}
	start := time.Now()
	res, err := cfpq.Eval(first.Graph, first.WCNF, g.union, opts...)
	g.runDur = time.Since(start)
	if err != nil {
		for _, m := range g.members {
			m.err = err
		}
		return
	}
	stats := res.Stats()
	obs.BatchWorkShared.Add(stats.Work)
	// Work the members would have spent on n solo fixpoints, saved by
	// sharing one. Lower bound: solo runs cost at least the shared run.
	obs.BatchWorkAmortized.Add(stats.Work * int64(n-1))
	pairs := res.Pairs()
	unionN := g.union.NVals()
	for _, m := range g.members {
		m.pairs = scatter(pairs, m.req.Sources)
		m.stats.Batched = true
		m.stats.Members = n
		m.stats.Rounds = stats.Rounds
		if unionN > 0 {
			m.stats.Work = stats.Work * int64(m.req.Sources.NVals()) / int64(unionN)
		}
	}
	c.seed(first, alg, g, pairs)
}

// evalSolo is the uncontended fast path: one request, one fixpoint,
// identical to calling cfpq.Eval directly (plus cache seeding).
func (c *Coalescer) evalSolo(ctx context.Context, req Request, alg exec.Algorithm) ([][2]int, Stats, error) {
	opts := []cfpq.Option{cfpq.WithContext(ctx), cfpq.WithAlgorithm(alg)}
	if req.Timeout > 0 {
		opts = append(opts, cfpq.WithTimeout(req.Timeout))
	}
	if req.Budget > 0 {
		opts = append(opts, cfpq.WithBudget(req.Budget))
	}
	if req.Trace != nil {
		opts = append(opts, cfpq.WithTrace(req.Trace))
	}
	res, err := cfpq.Eval(req.Graph, req.WCNF, req.Sources, opts...)
	if err != nil {
		return nil, Stats{Algorithm: alg, Members: 1}, err
	}
	st := res.Stats()
	pairs := res.Pairs()
	if c.cache != nil && c.cache.Enabled() {
		k := store.EvalKey(req.StoreID, req.Version, req.WCNF, req.Sources, alg)
		c.cache.Put(k, pairs, store.PairsBytes(pairs, k), req.StoreID, req.Version)
	}
	return pairs, Stats{Algorithm: alg, Members: 1, Rounds: st.Rounds, Work: st.Work}, nil
}

// scatter filters the union answer down to one member's sources. The
// union pairs are row-major sorted (matrix.Bool.Pairs), so the filtered
// slice is byte-identical to the member's solo answer ordering.
func scatter(pairs [][2]int, src *matrix.Vector) [][2]int {
	out := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		if src.Get(p[0]) {
			out = append(out, p)
		}
	}
	return out
}

// seed warms the version-keyed cache with the batch's answers: one
// entry per member source set plus one per individual source vertex, so
// later queries for any slice of this batch hit without a fixpoint.
func (c *Coalescer) seed(req Request, alg exec.Algorithm, g *group, pairs [][2]int) {
	if c.cache == nil || !c.cache.Enabled() {
		return
	}
	for _, m := range g.members {
		k := store.EvalKey(req.StoreID, req.Version, req.WCNF, m.req.Sources, alg)
		c.cache.Put(k, m.pairs, store.PairsBytes(m.pairs, k), req.StoreID, req.Version)
	}
	// Per-source singletons: pairs are row-major, so one forward sweep
	// slices each source's row range.
	n := req.Sources.Size()
	i := 0
	for _, s := range g.union.Ints() {
		for i < len(pairs) && pairs[i][0] < s {
			i++
		}
		j := i
		for j < len(pairs) && pairs[j][0] == s {
			j++
		}
		row := pairs[i:j:j]
		single := matrix.NewVectorFromIndices(n, []int{s})
		k := store.EvalKey(req.StoreID, req.Version, req.WCNF, single, alg)
		c.cache.Put(k, row, store.PairsBytes(row, k), req.StoreID, req.Version)
		i = j
	}
}
