// Provenance segmentation: the data-provenance use case from the
// paper's introduction (Miao & Deshpande, ICDE'19, reduce graph
// segmentation to CFPQ — and hit the wall that "no graph database
// supports CFPQ").
//
// The model: a workflow provenance graph with file and activity
// vertices. Activities read files (an activity -used-> file edge) and
// write files (a file -gen-> activity edge, i.e. wasGeneratedBy). A
// file g sits at the same derivation generation as f when walking up
// f's lineage n derivation steps reaches a common ancestor from which
// g is derived in exactly n steps:
//
//	S -> gen used S used_r gen_r | gen used used_r gen_r
//
// ("gen used" climbs one derivation, "used_r gen_r" descends one).
// This balanced climbing is context-free — not expressible as a regular
// query — which is exactly why the paper needs CFPQ in the database.
//
// Run with: go run ./examples/provenance
package main

import (
	"fmt"
	"log"

	"mscfpq"
)

func main() {
	// Two pipeline runs share one raw input:
	//   raw --(run A)--> A/clean -> A/features -> A/model
	//   raw --(run B)--> B/clean -> B/features -> B/model
	// Files: 0 raw, 1-3 run A, 4-6 run B. Activities: 7-12.
	g := mscfpq.NewGraph(13)
	type stage struct{ act, in, out int }
	stages := []stage{
		{7, 0, 1}, {8, 1, 2}, {9, 2, 3}, // run A
		{10, 0, 4}, {11, 4, 5}, {12, 5, 6}, // run B
	}
	for _, s := range stages {
		g.AddEdge(s.act, "used", s.in) // activity used input file
		g.AddEdge(s.out, "gen", s.act) // output wasGeneratedBy activity
	}
	names := map[int]string{
		0: "raw", 1: "A/clean", 2: "A/features", 3: "A/model",
		4: "B/clean", 5: "B/features", 6: "B/model",
	}

	gr, err := mscfpq.ParseGrammar(`
		S -> gen used S used_r gen_r | gen used used_r gen_r
	`)
	if err != nil {
		log.Fatal(err)
	}
	w, err := mscfpq.ToWCNF(gr)
	if err != nil {
		log.Fatal(err)
	}

	// Segment around run A's artifacts: which files of any run sit at
	// the same derivation depth?
	src := mscfpq.NewVertexSet(g.NumVertices(), 1, 2, 3)
	res, err := mscfpq.EvalCFPQ(g, w, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("files at the same derivation generation:")
	for _, p := range res.Pairs() {
		if p[0] == p[1] {
			continue
		}
		fmt.Printf("  %-11s ~ %s\n", names[p[0]], names[p[1]])
	}

	// The same segmentation through the database stack, as the paper's
	// full-stack contribution makes possible.
	db := mscfpq.NewDB()
	db.AddGraph("prov", g)
	reply, err := db.Query("prov", `
		PATH PATTERN SG = ()-/ [:gen :used ~SG <:used <:gen] | [:gen :used <:used <:gen] /->()
		MATCH (f)-/ ~SG /->(h)
		WHERE id(f) IN [1, 2, 3]
		RETURN f, h`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via GRAPH.QUERY: %d rows (library agrees: %v)\n",
		len(reply.Rows), len(reply.Rows) == res.NVals())
}
