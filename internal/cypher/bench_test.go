package cypher

import "testing"

// chunkStatement is the statement of a mixed-rw read: the paper's G1
// as a path pattern, from ten sources, as the wire benchmark cuts it. A
// result-cache miss parses it before anything else.
const chunkStatement = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() " +
	"MATCH (v)-/ ~S /->(to) WHERE id(v) IN [1187, 52, 930, 1544, 7, 611, 1290, 348, 1023, 76] RETURN v, to"

// parseAllocs bounds what parsing chunkStatement allocates: two thirds
// of the 114 objects it took while the lexer tried every multi-byte
// punctuation at each punctuation byte, allocated a string per
// one-byte token and grew its token slice by append.
const parseAllocs = 76

func TestParseAllocs(t *testing.T) {
	if _, err := Parse(chunkStatement); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(chunkStatement) }); n > parseAllocs {
		t.Fatalf("parsing the chunk statement allocates %.0f objects, want at most %d", n, parseAllocs)
	}
}

// BenchmarkParse times one parse of chunkStatement.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(chunkStatement); err != nil {
			b.Fatal(err)
		}
	}
}
