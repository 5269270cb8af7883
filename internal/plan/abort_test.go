package plan

import (
	"context"
	"errors"
	"reflect"
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
// query on one graph version, so a query aborted at any governor poll
// must leave it as the abort rule promises — no source claimed for any
// nonterminal — and a later query on it must be exact and must not
// process the aborted query's sources. The graph is two disjoint a^n b^n
// components, so the later query's sources cannot reach the first's.
func TestAbortedQueryLeavesNothingPending(t *testing.T) {
	g := graph.New(8)
	for _, base := range []int{0, 4} {
		g.AddEdge(base, "a", base+1)
		g.AddEdge(base+1, "a", base)
		g.AddEdge(base, "b", base+2)
		g.AddEdge(base+2, "b", base+3)
		g.AddEdge(base+3, "b", base)
	}
	const decl = `PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() MATCH (v)-/ :a ~S /->(to) `
	doomed := mustParseQuery(t, decl+`WHERE id(v) = 0 RETURN v, to`)
	later := mustParseQuery(t, decl+`WHERE id(v) = 4 RETURN v, to`)
	want := runQuery(t, g, decl+`WHERE id(v) = 4 RETURN v, to`)
	if len(want.Rows()) == 0 {
		t.Fatal("the later query has no answer to lose")
	}

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
		for a := 0; a < ctx.idx.W.NumNonterms(); a++ {
			if claimed := ctx.idx.ProcessedSources(a); !claimed.Empty() {
				t.Fatalf("abort at poll %d claimed sources %v for %s", polls, claimed.Ints(), ctx.idx.W.Nonterms[a])
			}
		}
		p, err = BuildWithCtx(later, NewEnv(g, nil, nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(rs), sortedRows(want)) {
			t.Fatalf("abort at poll %d: the later query answered %v, want %v", polls, sortedRows(rs), sortedRows(want))
		}
		for a := 0; a < ctx.idx.W.NumNonterms(); a++ {
			for _, v := range ctx.idx.ProcessedSources(a).Ints() {
				if v < 4 {
					t.Fatalf("abort at poll %d: the later query processed the aborted query's source %d for %s",
						polls, v, ctx.idx.W.Nonterms[a])
				}
			}
		}
	}
	if aborts < 3 {
		t.Fatalf("only %d polls aborted the query; the sweep covers nothing", aborts)
	}
}
