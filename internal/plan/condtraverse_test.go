package plan

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mscfpq/internal/exec"
	"mscfpq/internal/graph"
)

// checkRows runs every query on g and compares its sorted rows with the
// expected ones.
func checkRows(t *testing.T, g *graph.Graph, cases map[string][][]int64) {
	t.Helper()
	for query, want := range cases {
		if got := sortedRows(runQuery(t, g, query)); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s:\n got  %v\n want %v", query, got, want)
		}
	}
}

// Figure 11's algebraic expressions for a relationship pattern, each
// answered by the grammar rule CondTraverse compiles it into, checked on
// the Figure 1 graph: E^l is a step, V^l a trailing node check, E^a +
// E^b an alternation, Transpose(E^a) the inverse step :a_r, and a product
// a chain of traverses.
func TestCondTraverseBasicOperands(t *testing.T) {
	checkRows(t, paperGraph(), map[string][][]int64{
		`MATCH (v)-[:a]->(u) RETURN v, u`:    {{0, 1}, {1, 2}},
		`MATCH (v)-[:a]->(u:x) RETURN v, u`:  {{1, 2}},
		`MATCH (v)-[:nope]->(u) RETURN v, u`: nil,
		`MATCH (v)-->(u) RETURN v, u`:        {{0, 1}, {1, 2}, {1, 5}, {2, 4}, {3, 2}, {4, 3}, {4, 5}, {5, 4}},
	})
}

func TestCondTraverseCompound(t *testing.T) {
	checkRows(t, paperGraph(), map[string][][]int64{
		`MATCH (v)-[:a]->()-[:a]->(u) RETURN v, u`:                {{0, 2}},
		`MATCH (v)-[:a|b]->(u) RETURN v, u`:                       {{0, 1}, {1, 2}, {1, 5}},
		`MATCH (v)<-[:a]-(u) RETURN v, u`:                         {{1, 0}, {2, 1}},
		`MATCH (v)-[:a_r]->(u) RETURN v, u`:                       {{1, 0}, {2, 1}},
		`MATCH (v)<-[:a_r]-(u) RETURN v, u`:                       {{0, 1}, {1, 2}},
		`MATCH (v)-[:a]->(u:x) WHERE id(v) IN [0, 1] RETURN v, u`: {{1, 2}},
		`MATCH (v)<-[:b|d]-(u:y) RETURN v, u`:                     {{4, 2}, {4, 5}},
	})
}

// TestCondTraverseNoEdges: a relationship no edge can match — an
// untyped one on a graph without edges, or one of an unknown type —
// returns no rows, not an error.
func TestCondTraverseNoEdges(t *testing.T) {
	checkRows(t, graph.New(3), map[string][][]int64{
		`MATCH (v)-->(u) RETURN v, u`:                   nil,
		`MATCH (v)<--(u:x) RETURN v, u`:                 nil,
		`MATCH (v)-->(u:x) WHERE id(v) = 0 RETURN v, u`: nil,
		`MATCH (v)-->()-[:a]->(u) RETURN v, u`:          nil,
	})
	checkRows(t, paperGraph(), map[string][][]int64{
		`MATCH (v)-[:nosuch]->(u) RETURN v, u`:      nil,
		`MATCH (v)<-[:nosuch|a]-(u) RETURN v, u`:    {{1, 0}, {2, 1}},
		`MATCH (v)-[:nosuch]->()-->(u) RETURN v, u`: nil,
	})
}

// TestCondTraverseExplainsRules: EXPLAIN prints the rules a relationship
// pattern compiles into under the paper's operator name.
func TestCondTraverseExplainsRules(t *testing.T) {
	for query, want := range map[string]string{
		`MATCH (v)-[:a|b]->(u) RETURN v`:                   "CondTraverse(from=0, to=1, Q -> :a | :b)",
		`MATCH (v)<-[:a]-(u) RETURN v`:                     "CondTraverse(from=0, to=1, Q -> :a_r)",
		`MATCH (v)-[:a]->(u:x) WHERE id(v) = 0 RETURN v`:   "CondTraverse(from=0, to=1, Q -> :a (:x))",
		`MATCH (v)-->(u) RETURN v`:                         "CondTraverse(from=0, to=1, Q -> :a | :b | :c | :d)",
		`MATCH (v)-[:a]->(u) WHERE id(u) = 2 RETURN v`:     "CondTraverse(from=1, to=0, Q -> :a_r)",
		`MATCH (v)-[:a_r|b]->(u) WHERE id(u) = 2 RETURN v`: "CondTraverse(from=1, to=0, Q -> :a | :b_r)",
	} {
		p, err := Build(mustParseQuery(t, query), NewEnv(paperGraph(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p.Explain(), want) {
			t.Errorf("%s: explain lacks %q:\n%s", query, want, p.Explain())
		}
	}
	p, err := Build(mustParseQuery(t, `MATCH (v)-->(u) RETURN v`), NewEnv(graph.New(3), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := "CondTraverse(from=0, to=1, no path)"; !strings.Contains(p.Explain(), want) {
		t.Errorf("edgeless graph: explain lacks %q:\n%s", want, p.Explain())
	}
}

// TestCondTraverseAbortsPropagate: a budget or a cancelled context stops
// a relationship hop wherever it sits in the chain, and the error reaches
// the caller.
func TestCondTraverseAbortsPropagate(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, query := range []string{
		`MATCH (v)-[:a]->(u) RETURN v, u`,
		`MATCH (v)<-[:a|b]-(u) RETURN v, u`,
		`MATCH (v)-->(u:y) RETURN v, u`,
		`MATCH (v)-/ :a /->()-[:b]->(u) RETURN v, u`,
	} {
		if _, _, err := runGoverned(t, paperGraph(), query, exec.Options{Budget: 1}); !errors.Is(err, exec.ErrBudget) {
			t.Errorf("%s under budget 1: err = %v, want ErrBudget", query, err)
		}
		if _, _, err := runGoverned(t, paperGraph(), query, exec.Options{Ctx: cancelled}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", query, err)
		}
	}
}
