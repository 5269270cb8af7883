package plan

import (
	"strings"
	"testing"

	"mscfpq/internal/cypher"
)

func mustParseQuery(t testing.TB, src string) *cypher.Query {
	t.Helper()
	q, err := cypher.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func contains(haystack, needle string) bool { return strings.Contains(haystack, needle) }
