package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mscfpq/internal/algebra"
	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// PathCtx is the paper's path pattern context (Section 4.3.1): the
// global per-query storage mapping every named path pattern to its
// algebraic expression and its relation/source matrices. Resolution is
// backed by a cfpq.Index, so the optimized multiple-source algorithm
// (Algorithm 3) caches work across the CFPQTraverse operations of one
// plan — and across plans if the context is reused.
type PathCtx struct {
	g     *graph.Graph
	exprs map[string]algebra.Expr // translated named patterns (for EXPLAIN)
	wcnf  *grammar.WCNF
	idx   *cfpq.Index

	// mu serializes resolution: contexts are shared across the queries
	// of one graph (the index cache), and cfpq.Index is not safe for
	// concurrent mutation.
	mu sync.Mutex
	// pending accumulates sources noted by Algorithm 8 during expression
	// evaluation until the next resolution round.
	pending map[string]*matrix.Vector
}

// NewPathCtx compiles the PATH PATTERN declarations against a graph.
// pats may be empty: queries without references then evaluate with a
// nil-resolution context.
func NewPathCtx(g *graph.Graph, pats []cypher.NamedPathPattern) (*PathCtx, error) {
	ctx := &PathCtx{g: g, exprs: map[string]algebra.Expr{}, pending: map[string]*matrix.Vector{}}
	if len(pats) == 0 {
		return ctx, nil
	}
	for _, p := range pats {
		e, err := TranslatePathExpr(p.Expr)
		if err != nil {
			return nil, err
		}
		if _, dup := ctx.exprs[p.Name]; dup {
			return nil, fmt.Errorf("plan: duplicate path pattern %q", p.Name)
		}
		ctx.exprs[p.Name] = e
	}
	cf, err := PatternsToGrammar(pats)
	if err != nil {
		return nil, err
	}
	w, err := grammar.ToWCNF(cf)
	if err != nil {
		return nil, err
	}
	ctx.wcnf = w
	idx, err := cfpq.NewIndex(g, w)
	if err != nil {
		return nil, err
	}
	ctx.idx = idx
	return ctx, nil
}

// WarmSuccessor builds the context for a NEWER snapshot of the same
// logical graph, reusing this context's compiled expressions and
// grammar and seeding the new multiple-source index from the
// accumulated relations (cfpq.NewIndexWarm). Sound only when g grew
// out of ctx's graph by edge/vertex additions — exactly the write
// path's guarantee, which the version-keyed context cache in gdb
// enforces by only warm-starting along a store's version lineage.
// Contexts without an index (no declarations) warm to a fresh empty
// context.
func (ctx *PathCtx) WarmSuccessor(g *graph.Graph) (*PathCtx, error) {
	next := &PathCtx{g: g, exprs: ctx.exprs, wcnf: ctx.wcnf, pending: map[string]*matrix.Vector{}}
	if ctx.idx == nil {
		return next, nil
	}
	idx, err := cfpq.NewIndexWarm(g, ctx.wcnf, ctx.idx)
	if err != nil {
		return nil, err
	}
	next.idx = idx
	return next, nil
}

// CtxKey returns the canonical identity of a PATH PATTERN declaration
// set: reuse a PathCtx (and its warmed index) only for queries whose
// key matches and whose graph is unchanged.
func CtxKey(pats []cypher.NamedPathPattern) string {
	parts := make([]string, len(pats))
	for i, p := range pats {
		parts[i] = p.Name + "=" + p.Expr.String()
	}
	return strings.Join(parts, ";")
}

// Names returns the declared pattern names, sorted.
func (ctx *PathCtx) Names() []string {
	out := make([]string, 0, len(ctx.exprs))
	for n := range ctx.exprs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Expr returns the algebraic expression of a named pattern.
func (ctx *PathCtx) Expr(name string) (algebra.Expr, bool) {
	e, ok := ctx.exprs[name]
	return e, ok
}

// refMatrix returns the current relation matrix of a named pattern.
func (ctx *PathCtx) refMatrix(name string) (*matrix.Bool, error) {
	if ctx.idx == nil {
		return nil, fmt.Errorf("plan: reference ~%s outside any PATH PATTERN context", name)
	}
	id := ctx.wcnf.NontermID(name)
	if id < 0 {
		return nil, fmt.Errorf("plan: unknown path pattern ~%s", name)
	}
	return ctx.idx.Relation(id), nil
}

// noteRefSources buffers newly requested sources for a named pattern.
func (ctx *PathCtx) noteRefSources(name string, src *matrix.Vector) {
	if src.Empty() {
		return
	}
	cur := ctx.pending[name]
	if cur == nil {
		ctx.pending[name] = src.Clone()
		return
	}
	cur.UnionInPlace(src)
}

// resolvePending runs the multiple-source engine for all buffered
// sources under the given governor (nil = ungoverned); reports whether
// anything new was computed.
func (ctx *PathCtx) resolvePending(run *exec.Run) (bool, error) {
	if len(ctx.pending) == 0 {
		return false, nil
	}
	byNT := map[int]*matrix.Vector{}
	for name, src := range ctx.pending {
		id := ctx.wcnf.NontermID(name)
		if id < 0 {
			return false, fmt.Errorf("plan: unknown path pattern ~%s", name)
		}
		// Skip sources the index already processed.
		fresh := src.Clone()
		fresh.DiffInPlace(ctx.idx.ProcessedSources(id))
		if !fresh.Empty() {
			byNT[id] = fresh
		}
	}
	clear(ctx.pending)
	if len(byNT) == 0 {
		return false, nil
	}
	if _, err := ctx.idx.MultiSourceSmartFrom(byNT, exec.WithRun(run)); err != nil {
		return false, err
	}
	return true, nil
}

// EvalResolved evaluates an algebraic expression, alternating evaluation
// (which notes reference sources via Algorithm 8) with multiple-source
// resolution until the noted source sets stop growing. Expressions
// without references evaluate in a single pass.
func (ctx *PathCtx) EvalResolved(expr algebra.Expr, env algebra.Env) (*matrix.Bool, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	// The context outlives this query (gdb shares one per graph
	// version): sources noted by an evaluation that then aborts must not
	// be resolved under the next query's timeout and budget.
	defer clear(ctx.pending)
	// The environment's governor (if any) also drives the nested
	// multiple-source resolutions, so one per-query context and budget
	// covers expression evaluation and index growth alike.
	var run *exec.Run
	if g, ok := env.(algebra.Governed); ok {
		run = g.ExecRun()
	}
	for {
		m, err := algebra.Eval(expr, env)
		if err != nil {
			return nil, err
		}
		progressed, err := ctx.resolvePending(run)
		if err != nil {
			return nil, err
		}
		if !progressed {
			return m, nil
		}
	}
}

// Env adapts a graph plus a PathCtx to algebra.Env and adds the
// property access plan filters need.
type Env struct {
	G     *graph.Graph
	Ctx   *PathCtx
	Props PropStore // may be nil: property predicates then fail

	// Run is the per-query execution governor; nil evaluates
	// ungoverned. Plan.ExecuteWith installs it for the duration of one
	// execution.
	Run *exec.Run

	anyEdge *matrix.Bool // cached union adjacency
}

// PropStore gives filters access to node properties and is implemented
// by the database storage layer.
type PropStore interface {
	// PropEquals reports whether node v has property key equal to val.
	PropEquals(v int, key string, val cypher.Value) bool
}

// NewEnv builds an evaluation environment.
func NewEnv(g *graph.Graph, ctx *PathCtx, props PropStore) *Env {
	return &Env{G: g, Ctx: ctx, Props: props}
}

// ExecRun implements algebra.Governed.
func (e *Env) ExecRun() *exec.Run { return e.Run }

// Vertices implements algebra.Env.
func (e *Env) Vertices() int { return e.G.NumVertices() }

// EdgeMatrix implements algebra.Env.
func (e *Env) EdgeMatrix(label string) *matrix.Bool { return e.G.EdgeMatrix(label) }

// VertexMatrix implements algebra.Env.
func (e *Env) VertexMatrix(label string) *matrix.Bool { return e.G.VertexMatrix(label) }

// AnyEdgeMatrix implements algebra.Env.
func (e *Env) AnyEdgeMatrix() *matrix.Bool {
	if e.anyEdge == nil {
		e.anyEdge = e.G.AdjacencyUnion(false)
	}
	return e.anyEdge
}

// RefMatrix implements algebra.Env.
func (e *Env) RefMatrix(name string) (*matrix.Bool, error) {
	if e.Ctx == nil {
		return nil, fmt.Errorf("plan: reference ~%s without path pattern context", name)
	}
	return e.Ctx.refMatrix(name)
}

// NoteRefSources implements algebra.Env.
func (e *Env) NoteRefSources(name string, src *matrix.Vector) {
	if e.Ctx != nil {
		e.Ctx.noteRefSources(name, src)
	}
}
