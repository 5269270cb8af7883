// Quickstart: the smallest end-to-end multiple-source CFPQ program.
//
// It builds the classic two-cycle graph (a cycle of a-edges and a cycle
// of b-edges sharing vertex 0), asks for paths spelling a^n b^n from a
// single start vertex, and extracts a witness path for one result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"mscfpq"
)

func main() {
	// A cycle of two a-edges and a cycle of three b-edges sharing
	// vertex 0: a^n b^n paths from 0 return to 0 whenever 2|n and 3|n.
	g := mscfpq.NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 0)
	g.AddEdge(0, "b", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)

	gr, err := mscfpq.ParseGrammar("S -> a S b | a b")
	if err != nil {
		log.Fatal(err)
	}
	w, err := mscfpq.ToWCNF(gr)
	if err != nil {
		log.Fatal(err)
	}

	// Multiple-source query: only paths starting at vertex 0. EvalCFPQ
	// runs the multiple-source algorithm because a source set is given.
	src := mscfpq.NewVertexSet(g.NumVertices(), 0)
	answer, err := mscfpq.EvalCFPQ(g, w, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairs reachable from vertex 0 via a^n b^n:")
	for _, p := range answer.Pairs() {
		fmt.Printf("  %d -> %d\n", p[0], p[1])
	}

	// Single-path semantics: reconstruct one witness.
	sp, err := mscfpq.SinglePath(g, w)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := sp.Path(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	words := make([]string, len(steps))
	for i, s := range steps {
		words[i] = fmt.Sprintf("%d-%s->%d", s.Src, s.Label, s.Dst)
	}
	fmt.Printf("witness for (0,0): %s\n", strings.Join(words, " "))
}
