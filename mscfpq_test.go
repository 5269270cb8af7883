package mscfpq

import (
	"testing"

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

	ap, err := EvalCFPQ(g, w, nil, WithAlgorithm(AlgMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if !hasPair(ap.Pairs(), [2]int{0, 0}) {
		t.Fatal("all-pairs missing (0,0)")
	}

	sp, err := EvalCFPQ(g, w, nil, WithAlgorithm(AlgSinglePath))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sp.(PathCFPQResult).Path(1, 3)
	if err != nil || len(steps) != 2 {
		t.Fatalf("path = %v, %v", steps, err)
	}

	wl, err := EvalCFPQ(g, w, nil, WithAlgorithm(AlgWorklist))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(wl.Pairs(), ap.Pairs()) {
		t.Fatal("worklist differs from all-pairs")
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
	src := NewVertexSet(4, 0)
	msp, err := EvalCFPQ(g, w, src, WithAlgorithm(AlgMSSinglePath))
	if err != nil {
		t.Fatal(err)
	}
	if !hasPair(msp.Pairs(), [2]int{0, 0}) {
		t.Fatalf("answer = %v", msp.Pairs())
	}
	steps, err := msp.(PathCFPQResult).Path(0, 0)
	if err != nil || len(steps) != 4 {
		t.Fatalf("witness = %v, %v", steps, err)
	}
	sn, err := EvalCFPQ(g, w, nil, WithAlgorithm(AlgSemiNaive))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := EvalCFPQ(g, w, nil, WithAlgorithm(AlgMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(sn.Pairs(), ap.Pairs()) {
		t.Fatal("semi-naive differs")
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
	ap, err := EvalCFPQ(g, regexWCNF(t, "a+"), src, WithAlgorithm(AlgMatrix))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(ap.Pairs(), m.Pairs()) {
		t.Fatalf("regex via all-pairs CFPQ = %v, EvalRPQ = %v", ap.Pairs(), m.Pairs())
	}
}

func TestFacadeDatabase(t *testing.T) {
	db := NewDB()
	if _, err := db.Query("g", `CREATE (a:N)-[:e]->(b:N)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rows = %v, %v", res, err)
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
	reply, err := c.GraphQuery("g", `MATCH (v:N)-[:e]->(u) RETURN v, u`)
	if err != nil || len(reply.Rows) != 1 {
		t.Fatalf("reply = %v, %v", reply, err)
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
