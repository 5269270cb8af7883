package mscfpq

import (
	"context"
	"errors"
	"testing"
	"time"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/rpq"
)

func hasPair(pairs [][2]int, p [2]int) bool {
	for _, q := range pairs {
		if q == p {
			return true
		}
	}
	return false
}

func samePairs(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFacadeQuickstart exercises the doc-comment example end to end.
func TestFacadeQuickstart(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	gr, err := ParseGrammar("S -> a S b | a b")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ToWCNF(gr)
	if err != nil {
		t.Fatal(err)
	}
	src := NewVertexSet(g.NumVertices(), 0, 1)
	res, err := EvalCFPQ(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	// a a b b from 0 ends at 0; a b from 1 ends at 3.
	if !hasPair(res.Pairs(), [2]int{0, 0}) || !hasPair(res.Pairs(), [2]int{1, 3}) {
		t.Fatalf("answer = %v", res.Pairs())
	}

	ap, err := EvalCFPQ(g, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPair(ap.Pairs(), [2]int{0, 0}) {
		t.Fatal("all-pairs missing (0,0)")
	}

	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sp.Path(1, 3)
	if err != nil || len(steps) != 2 {
		t.Fatalf("path = %v, %v", steps, err)
	}
	if word := Word(steps); len(word) != 2 || word[0] != "a" || word[1] != "b" {
		t.Fatalf("word of the 1 -> 3 path = %v, want [a b]", word)
	}
	if !samePairs(sp.Pairs(), ap.Pairs()) {
		t.Fatal("single-path differs from all-pairs")
	}

	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := idx.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(smart.Answer().Pairs(), res.Pairs()) {
		t.Fatal("smart differs from fresh")
	}
}

func TestFacadeSinglePathAndSemiNaive(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPair(sp.Pairs(), [2]int{0, 0}) {
		t.Fatalf("answer = %v", sp.Pairs())
	}
	steps, err := sp.Path(0, 0)
	if err != nil || len(steps) != 4 {
		t.Fatalf("witness = %v, %v", steps, err)
	}
	ref, err := cfpq.AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := EvalCFPQ(g, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(ref.Pairs(), ap.Pairs()) {
		t.Fatal("EvalCFPQ's all-pairs answer differs from the AllPairs loop")
	}
}

// TestFacadeAnswerIsACopy: an all-pairs start relation that is a label
// relation is the graph's own matrix inside the driver, so EvalCFPQ
// must hand out a copy: writing to the answer leaves the graph as it
// was, inverse labels (the graph's cached transpose) included.
func TestFacadeAnswerIsACopy(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(2, "a", 3)
	for _, text := range []string{"S -> a", "S -> a_r"} {
		gr, err := ParseGrammar(text)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ToWCNF(gr)
		if err != nil {
			t.Fatal(err)
		}
		label := w.Terms[w.TermRules[0].Term]
		before := g.EdgeMatrix(label).Clone()
		answer, err := EvalCFPQ(g, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !answer.Equal(before) {
			t.Fatalf("%s: answer %v, want %v", text, answer.Pairs(), before.Pairs())
		}
		answer.Set(3, 0)
		answer.Set(1, 1)
		if !g.EdgeMatrix(label).Equal(before) || g.HasEdge(3, label, 0) {
			t.Fatalf("%s: writing to the answer changed the graph: %v", text, g.EdgeMatrix(label).Pairs())
		}
	}
}

// regexWCNF is the grammar EvalRPQ compiles a regex to.
func regexWCNF(t *testing.T, query string) *WCNF {
	t.Helper()
	w, err := rpq.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFacadeRegex(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	src := NewVertexSet(3, 0)
	m, err := EvalRPQ(g, "a+", src)
	if err != nil || m.NVals() != 2 || !m.Get(0, 1) || !m.Get(0, 2) {
		t.Fatalf("regex pairs = %v, %v", m, err)
	}
	// The compiled grammar under Algorithm 1, restricted to the sources,
	// is the reference for the multiple-source path EvalRPQ takes.
	ap, err := cfpq.AllPairs(g, regexWCNF(t, "a+"))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(ap.PairsFrom(src), m.Pairs()) {
		t.Fatalf("regex via all-pairs CFPQ = %v, EvalRPQ = %v", ap.PairsFrom(src), m.Pairs())
	}
}

func TestFacadeDatabase(t *testing.T) {
	db := NewDB()
	if _, err := db.Query("g", `CREATE (a:N)-[:e]->(b:N)`); err != nil {
		t.Fatal(err)
	}
	// The facade's type names are the types its calls return.
	var res *QueryResult
	res, err := db.Query("g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rows = %v, %v", res, err)
	}
	var store *GraphStore
	if store, err = db.Get("g"); err != nil || store.Graph().NumVertices() != 2 {
		t.Fatalf("graph store: %v", err)
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply *QueryReply
	reply, err = c.GraphQuery("g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if err != nil || len(reply.Rows) != 1 {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

// TestFacadeGovernance runs the README's governance options: a done
// context and an expired timeout each abort the query with their error.
func TestFacadeGovernance(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	w, err := ToWCNF(G2())
	if err != nil {
		t.Fatal(err)
	}
	src := NewVertexSet(g.NumVertices(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalCFPQ(g, w, src, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := EvalCFPQ(g, w, src, WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired timeout: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestFacadeDataset(t *testing.T) {
	if len(Dataset()) != 8 {
		t.Fatal("dataset registry incomplete")
	}
	g, err := GenerateDataset("core", 0.2)
	if err != nil || g.NumVertices() == 0 {
		t.Fatalf("generate: %v", err)
	}
	if _, err := GenerateDataset("nope", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestFacadeQueryGrammars(t *testing.T) {
	for _, g := range []*Grammar{G1(), G2(), Geo()} {
		if _, err := ToWCNF(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeGraphIO(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	g := NewGraph(2)
	g.AddEdge(0, "a", 1)
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path)
	if err != nil || !back.HasEdge(0, "a", 1) {
		t.Fatalf("load: %v", err)
	}
	if _, err := LoadGrammar(path + ".nope"); err == nil {
		t.Fatal("expected error")
	}
}
