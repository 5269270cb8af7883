// RPQ: regular queries as a partial case of CFPQ.
//
// The paper's conclusion demonstrates that the CFPQ machinery evaluates
// regular path queries too. EvalRPQ is that claim as the library's one
// RPQ path: it compiles the regex to a left-linear grammar, with the
// same compiler as the query language's path patterns, and answers it
// with the multiple-source CFPQ algorithm, the same fixpoint driver
// every context-free query runs on. The example also shows query
// governance: a second run is given a deliberately tiny work budget and
// aborts with ErrBudget.
//
// Run with: go run ./examples/rpqengines
package main

import (
	"errors"
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
	const regex = "subClassOf+ type_r?"
	fmt.Printf("query %q over the core analog (%d vertices)\n", regex, g.NumVertices())

	src := mscfpq.NewVertexSet(g.NumVertices(), 10, 20, 30, 40, 50)

	start := time.Now()
	reach, err := mscfpq.EvalRPQ(g, regex, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d pairs via the CFPQ driver in %v\n", reach.NVals(), time.Since(start).Round(time.Microsecond))

	// Governed execution: the same query with a work budget far below
	// what the fixpoint needs aborts deterministically with ErrBudget.
	_, err = mscfpq.EvalRPQ(g, regex, src, mscfpq.WithBudget(10))
	if errors.Is(err, mscfpq.ErrBudget) {
		fmt.Println("budget of 10 relation entries: query aborted with ErrBudget as expected")
	} else {
		log.Fatalf("expected ErrBudget, got %v", err)
	}
}
