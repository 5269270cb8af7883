package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead asserts the textual graph format round-trips: any input the
// reader accepts must serialize to a canonical form that re-reads to an
// identical serialization (Write ∘ Read is idempotent), and reading
// never panics on arbitrary bytes nor builds past MaxRowSlots (the last
// two seeds name vertices that once made Read allocate 12 and 72 GB).
func FuzzRead(f *testing.F) {
	seeds := []string{
		"order 6\n0 a 1\n1 b 2\nvertex 3 x\n",
		"# comment\n0 subClassOf 1\n1 type 0\n",
		"order 0\n",
		"0 broaderTransitive 1\n1 broaderTransitive 2\n",
		"vertex 0 y\norder 3\n",
		"order 2\n0 a 0\n0 a 0\n",
		"not a graph",
		"0 a\n",
		"-1 a 2\n",
		"order -5\n",
		"0 a_r 1\n", // an inverse label is derived, never stored
		"000000500000000 0 0",
		"0 \xd0\xd3\xd8Ӱ 000003000000030",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own serialization failed: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not canonical:\nfirst:\n%s\nsecond:\n%s",
				first.String(), second.String())
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: %d/%d vertices, %d/%d edges",
				g.NumVertices(), back.NumVertices(), g.NumEdges(), back.NumEdges())
		}
	})
}
