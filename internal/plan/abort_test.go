package plan

import (
	"context"
	"errors"
	"testing"

	"mscfpq/internal/exec"
	"mscfpq/internal/graph"
)

// flipCtx reports context.Canceled from its (*left+1)-th Err call on.
type flipCtx struct {
	context.Context
	left *int
}

func (c flipCtx) Err() error {
	if *c.left <= 0 {
		return context.Canceled
	}
	*c.left--
	return nil
}

// TestAbortedQueryLeavesNothingPending: a PathCtx is shared by every
// query on one graph version, so a query that aborts after Algorithm 8
// noted its sources must not leave them for the next query to resolve
// under its own timeout and budget. The graph is two disjoint a^n b^n
// components, so the second query's sources cannot reach the first's.
func TestAbortedQueryLeavesNothingPending(t *testing.T) {
	g := graph.New(8)
	for _, base := range []int{0, 4} {
		g.AddEdge(base, "a", base+1)
		g.AddEdge(base+1, "a", base)
		g.AddEdge(base, "b", base+2)
		g.AddEdge(base+2, "b", base+3)
		g.AddEdge(base+3, "b", base)
	}
	const decl = `PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() MATCH (v)-/ ~S /->(to) `
	doomed := mustParseQuery(t, decl+`WHERE id(v) = 0 RETURN v, to`)
	later := mustParseQuery(t, decl+`WHERE id(v) = 4 RETURN v, to`)

	aborts := 0
	for polls := 0; ; polls++ {
		if polls > 1000 {
			t.Fatal("query still aborting after 1000 governor polls")
		}
		ctx, err := NewPathCtx(g, doomed.PathPatterns)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildWithCtx(doomed, NewEnv(g, nil, nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		left := polls
		_, err = p.ExecuteWith(exec.WithContext(flipCtx{context.Background(), &left}))
		if err == nil {
			break // the query outran the flip: every earlier poll is covered
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abort at poll %d: %v", polls, err)
		}
		aborts++
		if len(ctx.pending) != 0 {
			t.Fatalf("abort at poll %d left pending sources %v", polls, ctx.pending)
		}
		// The abort may have come after a resolution committed; only what
		// the later query adds is held against it.
		before := make([]int, ctx.wcnf.NumNonterms())
		for a := range before {
			before[a] = lowSources(ctx, a)
		}
		p, err = BuildWithCtx(later, NewEnv(g, nil, nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			t.Fatalf("abort at poll %d: the later query lost its answer", polls)
		}
		for a, had := range before {
			if low := lowSources(ctx, a); low != had {
				t.Fatalf("abort at poll %d: the later query processed %d of the aborted query's sources for %s",
					polls, low-had, ctx.wcnf.Nonterms[a])
			}
		}
	}
	if aborts < 3 {
		t.Fatalf("only %d polls aborted the query; the sweep covers nothing", aborts)
	}
}

// lowSources counts the processed sources of nonterminal a that lie in
// the first component (vertices 0-3).
func lowSources(ctx *PathCtx, a int) int {
	low := 0
	for _, v := range ctx.idx.ProcessedSources(a).Ints() {
		if v < 4 {
			low++
		}
	}
	return low
}
