package plan

import (
	"strings"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// PathCtx is the paper's path pattern context (Section 4.3.1): the
// storage shared by the traverse operations of a plan — and across
// plans, when the context is reused — that answers named path patterns.
// It holds the PATH PATTERN declarations compiled into a grammar and a
// cfpq.Index over that grammar, so the optimized multiple-source
// algorithm (Algorithm 3) caches its work across queries; each traverse
// adds its own path or relationship pattern to the grammar
// (compilePath).
type PathCtx struct {
	pats []cypher.NamedPathPattern
	cf   *grammar.Grammar // the declarations compiled, for EXPLAIN; nil without declarations
	idx  *cfpq.Index      // over cf's WCNF, or over the empty grammar
}

// NewPathCtx compiles the PATH PATTERN declarations against a graph.
// pats may be empty: the index is then over the empty grammar, and the
// MATCH clause's path patterns bring all of their rules.
func NewPathCtx(g *graph.Graph, pats []cypher.NamedPathPattern) (*PathCtx, error) {
	ctx := &PathCtx{pats: pats}
	w := &grammar.WCNF{}
	if len(pats) > 0 {
		cf, err := PatternsToGrammar(pats)
		if err != nil {
			return nil, err
		}
		if w, err = grammar.ToWCNF(cf); err != nil {
			return nil, err
		}
		ctx.cf = cf
	}
	idx, err := cfpq.NewIndex(g, w)
	if err != nil {
		return nil, err
	}
	ctx.idx = idx
	return ctx, nil
}

// WarmSuccessor builds the context for a NEWER snapshot of the same
// logical graph, reusing this context's compiled grammar and carrying
// its multiple-source index over (cfpq.NewIndexWarm): its relations,
// and its processed sources when g grew apart from ctx's graph. Sound
// only when g grew out of ctx's graph by edge/vertex additions, which
// the context cache in gdb ensures by only warm-starting along a
// store's version lineage.
func (ctx *PathCtx) WarmSuccessor(g *graph.Graph) (*PathCtx, error) {
	idx, err := cfpq.NewIndexWarm(g, ctx.idx.W, ctx.idx)
	if err != nil {
		return nil, err
	}
	return &PathCtx{pats: ctx.pats, cf: ctx.cf, idx: idx}, nil
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

// Env is what plan operations evaluate against: the graph, the path
// pattern context every traverse reads, and the property access plan
// filters need.
type Env struct {
	G     *graph.Graph
	Ctx   *PathCtx
	Props PropStore // may be nil: property predicates then fail

	// Run is the per-query execution governor; nil evaluates
	// ungoverned. Plan.ExecuteWith installs it for the duration of one
	// execution.
	Run *exec.Run
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
