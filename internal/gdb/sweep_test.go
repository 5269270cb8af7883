package gdb

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/graph"
)

// gadgetSize is the vertex count of one gadget copy.
const gadgetSize = 50

// gadgets is k disjoint copies of a class tree: in each, vertex c+i is
// the subClassOf parent of c+2i+1 and c+2i+2, and every leaf has a type
// edge to the root, so G1's S relates the vertices of each level.
func gadgets(k int) *graph.Graph {
	g := graph.New(gadgetSize * k)
	for c := 0; c < gadgetSize*k; c += gadgetSize {
		for i := 1; i < gadgetSize; i++ {
			g.AddEdge(c+(i-1)/2, "subClassOf", c+i)
			if 2*i+1 >= gadgetSize {
				g.AddEdge(c+i, "type", c)
			}
		}
	}
	return g
}

// sweepQuery is the wire benchmark's sparse-sweep statement for ten
// vertices of gadget copy c.
func sweepQuery(c int) string {
	ids := make([]string, 10)
	for i := range ids {
		ids[i] = fmt.Sprint(c*gadgetSize + 10 + 3*i)
	}
	return "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() " +
		"MATCH (v)-/ ~S /->(to) WHERE id(v) IN [" + strings.Join(ids, ", ") + "] RETURN v, to"
}

// TestSweepQueryBytesAreSizeIndependent: a chunk query of the sweep
// shape — ten ids through a declared ~S on a warm context, each query on
// sources no earlier one touched — does the same work and allocates as
// many bytes (within 20%) on 20 000 vertices as on 5 000. Neither the id
// seek, nor the fixpoint's operands, nor the rows read out walk an
// n-slot table. The collector is off while bytes are counted, and the
// bytes are not compared under the race detector.
func TestSweepQueryBytesAreSizeIndependent(t *testing.T) {
	const queries = 20
	var bytes []float64
	var spent []int64
	var rows []int
	for _, k := range []int{100, 400} {
		db := New()
		s := db.AddGraph("g", gadgets(k))
		warm, err := db.Query("g", sweepQuery(0)) // builds the context and the graph's inverse labels
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, len(warm.Rows))
		q, err := cypher.Parse(sweepQuery(1))
		if err != nil {
			t.Fatal(err)
		}
		run, cancel := exec.Options{}.Start()
		_, _, err = s.runMatchSnap(s.Snapshot(), q, run)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		spent = append(spent, run.Spent())

		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for c := 2; c < 2+queries; c++ {
			if _, err := db.Query("g", sweepQuery(c)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/queries)
	}
	t.Logf("B/query %.0f at 5000 vertices, %.0f at 20000", bytes[0], bytes[1])
	flat := raceEnabled || bytes[1] <= 1.2*bytes[0] && bytes[0] <= 1.2*bytes[1]
	if rows[0] == 0 || rows[0] != rows[1] || spent[0] == 0 || spent[0] != spent[1] || !flat {
		t.Errorf("%d rows, %d work and %.0f B/query on 5000 vertices; %d, %d and %.0f on 20000",
			rows[0], spent[0], bytes[0], rows[1], spent[1], bytes[1])
	}
}
