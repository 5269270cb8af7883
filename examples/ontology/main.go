// Ontology analysis: the paper's motivating RDF workload.
//
// The program generates a synthetic analog of the "core" ontology from
// the CFPQ_Data dataset, then evaluates the same-generation queries G1
// and G2 in the multiple-source setting: given a handful of concept
// vertices, find the concepts at the same hierarchy depth. It also
// demonstrates the cached index (Algorithm 3): the second batch of
// sources reuses everything the first batch computed.
//
// Run with: go run ./examples/ontology
package main

import (
	"fmt"
	"log"
	"time"

	"mscfpq"
)

func main() {
	g, err := mscfpq.GenerateDataset("core", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core analog: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	w, err := mscfpq.ToWCNF(mscfpq.G2())
	if err != nil {
		log.Fatal(err)
	}

	// Fresh multiple-source query for the first ten concepts.
	batch1 := mscfpq.NewVertexSet(g.NumVertices(), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	start := time.Now()
	res, err := mscfpq.EvalCFPQ(g, w, batch1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G2 from 10 sources: %d same-generation pairs in %v\n",
		res.NVals(), time.Since(start).Round(time.Microsecond))

	// The cached index: batch 1 warms it, batch 2 overlaps heavily and
	// finishes far faster than a fresh evaluation.
	idx, err := mscfpq.NewIndex(g, w)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if _, err := idx.MultiSourceSmart(batch1); err != nil {
		log.Fatal(err)
	}
	cold := time.Since(start)
	batch2 := mscfpq.NewVertexSet(g.NumVertices(), 5, 6, 7, 8, 9, 10, 11, 12)
	start = time.Now()
	smart, err := idx.MultiSourceSmart(batch2)
	if err != nil {
		log.Fatal(err)
	}
	warm := time.Since(start)
	fmt.Printf("index: cold batch %v, overlapping warm batch %v (%d pairs)\n",
		cold.Round(time.Microsecond), warm.Round(time.Microsecond), smart.Answer().NVals())

	// G1 adds the type relation: classes also relate when they share
	// typed instances (the query starts at class vertices, whose
	// incoming type/subClassOf edges drive the x̄-steps).
	w1, err := mscfpq.ToWCNF(mscfpq.G1())
	if err != nil {
		log.Fatal(err)
	}
	classes := mscfpq.NewVertexSet(g.NumVertices(), 0, 1, 2, 3, 4)
	res1, err := mscfpq.EvalCFPQ(g, w1, classes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G1 from 5 class vertices: %d pairs\n", res1.NVals())
	for i, p := range res1.Pairs() {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %d and %d are same-generation\n", p[0], p[1])
	}
}
