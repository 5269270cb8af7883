package cypher

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics and that lexical errors are
// reported as errors, for arbitrary input. Run with `go test -fuzz=FuzzParse`;
// the seed corpus also runs under plain `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`MATCH (v)-[:a]->(u) RETURN v, u`,
		`PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() MATCH (v)-/ ~S /->(to) RETURN v, to`,
		`CREATE (a:N {k: 'v', n: 42})-[:e]->(b)`,
		`MATCH (v) WHERE id(v) IN [1,2] AND v.x = 'y' RETURN count(v) ORDER BY v DESC SKIP 1 LIMIT 2`,
		`MATCH (v)<-/ [:a]* <:b /-(u) RETURN v AS x`,
		`MATCH (v)-/`,
		`-/ /-> ~ [ ] | < : (`,
		"MATCH (v {s: 'O\\'Hara'}) RETURN v",
		// Path patterns over the labels of the checked-in query grammars
		// (queries/*.txt): G1, Geo, and a^n b^n as GQL-style patterns.
		`PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:subClassOf :subClassOf] /->() MATCH (v)-/ ~S /->(u) RETURN v, u`,
		`PATH PATTERN S = ()-/ [:broaderTransitive ~S <:broaderTransitive] | [:broaderTransitive <:broaderTransitive] /->() MATCH (x)-/ ~S /->(y) RETURN x, y`,
		`PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() MATCH (v)-/ ~S /->(u) RETURN count(v)`,
	}
	// One level past MaxPathDepth: a parse error, not a deep recursion.
	deep := strings.Repeat("[", MaxPathDepth+1) + ":a" + strings.Repeat("]", MaxPathDepth+1)
	seeds = append(seeds, `MATCH (v)-/ `+deep+` /->(to) RETURN count(to)`)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatal("nil query without error")
		}
	})
}
