// Fullstack: the paper's Section 4 demonstration — a graph database
// with first-class CFPQ, spoken to over the wire.
//
// The program starts the RESP server in-process, connects a client,
// creates a graph with Cypher CREATE statements, and runs the paper's
// listing-5 query (the a^n b^n named path pattern) plus a regular path
// query, showing the results, the execution plan and the span tree of
// a profiled run.
//
// Run with: go run ./examples/fullstack
package main

import (
	"fmt"
	"log"

	"mscfpq"
)

func main() {
	db := mscfpq.NewDB()
	srv := mscfpq.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			log.Print(err)
		}
	}()
	defer srv.Close()
	fmt.Printf("server on %s\n", addr)

	c, err := mscfpq.Dial(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore errdrop closing the client at process exit; nothing can act on the error
	defer c.Close()

	// Build the two-cycle graph over the wire: vertices are created
	// implicitly, ids are assigned in CREATE order.
	stmts := []string{
		`CREATE (v0:N)-[:a]->(v1:N), (v1)-[:a]->(v0)`,
		`MATCH (x:N) RETURN x`, // force ids to exist before reuse below
	}
	for _, s := range stmts {
		if _, err := c.GraphQuery("cycles", s); err != nil {
			log.Fatal(err)
		}
	}
	// The b-cycle reuses vertex 0 via a MATCH-free CREATE with fresh
	// nodes, then explicit edges between known ids are added with
	// CREATE patterns on bound variables.
	if _, err := c.GraphQuery("cycles", `CREATE (v2:N)-[:x]->(v3:N)`); err != nil {
		log.Fatal(err)
	}
	// Wire the b-cycle 0 -> 2 -> 3 -> 0 directly through the library
	// handle (mixing API and wire access on one database).
	store, err := db.Get("cycles")
	if err != nil {
		log.Fatal(err)
	}
	store.Graph().AddEdge(0, "b", 2)
	store.Graph().AddEdge(2, "b", 3)
	store.Graph().AddEdge(3, "b", 0)

	// Listing 5: the context-free a^n b^n query as a named path pattern.
	query := `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`
	plan, err := c.GraphExplain("cycles", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("execution plan:")
	for _, line := range plan {
		fmt.Println("  " + line)
	}
	reply, err := c.GraphQuery("cycles", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a^n b^n pairs:")
	for _, row := range reply.Rows {
		fmt.Printf("  %d -> %d\n", row[0], row[1])
	}

	// Regular queries are a partial case: a Kleene plus over :a.
	reply, err = c.GraphQuery("cycles", `MATCH (v)-/ [:a]+ /->(u) WHERE id(v) = 0 RETURN v, u`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a+ from vertex 0:")
	for _, row := range reply.Rows {
		fmt.Printf("  %d -> %d\n", row[0], row[1])
	}
	for _, s := range reply.Stats {
		fmt.Println("  --", s)
	}

	// Aggregation and profiling through the same wire protocol.
	// PATH PATTERN declarations are per-query (the store caches the
	// compiled context, so the index is reused under the hood).
	reply, err = c.GraphQuery("cycles", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to) RETURN v, count(to) AS n ORDER BY n DESC LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top sources by a^n b^n fan-out:")
	for _, row := range reply.Rows {
		fmt.Printf("  vertex %d reaches %d\n", row[0], row[1])
	}
	profile, err := c.GraphProfile("cycles", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("span tree of the path-pattern query (GRAPH.PROFILE):")
	for _, line := range profile {
		fmt.Println("  " + line)
	}
	stats, err := c.Do("GRAPH.STATS", "cycles")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("graph statistics:")
	for _, l := range stats.Array {
		fmt.Println("  " + l.Str)
	}
}
