package resp

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"

	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := Write(w, v); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := Read(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("read back %q: %v", buf.String(), err)
	}
	return got
}

func TestProtocolRoundTrip(t *testing.T) {
	cases := []Value{
		Simple("OK"),
		Int(-42),
		Bulk("hello world"),
		Bulk(""),
		Bulk("with\r\nnewlines"),
		{Kind: BulkString, Null: true},
		Arr(),
		Arr(Bulk("a"), Int(1), Arr(Simple("x"))),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if got.Kind != v.Kind || got.Str != v.Str || got.Int != v.Int || got.Null != v.Null || len(got.Array) != len(v.Array) {
			t.Fatalf("round trip changed %+v -> %+v", v, got)
		}
	}
}

func TestErrorReply(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := Write(w, Errorf("boom %d", 7)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := Read(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != ErrorString || !strings.Contains(got.Str, "boom 7") {
		t.Fatalf("error reply = %+v", got)
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"",
		"?x\r\n",
		":abc\r\n",
		"$5\r\nab\r\n",
		"$-5\r\n",
		"*-5\r\n",
		"+no-crlf",
	}
	for _, src := range cases {
		if _, err := Read(bufio.NewReader(strings.NewReader(src))); err == nil {
			t.Errorf("Read(%q): expected error", src)
		}
	}
}

func TestStringsExtraction(t *testing.T) {
	args, err := Strings(Arr(Bulk("PING"), Bulk("x")))
	if err != nil || len(args) != 2 || args[0] != "PING" {
		t.Fatalf("Strings = %v, %v", args, err)
	}
	if _, err := Strings(Int(1)); err == nil {
		t.Fatal("expected error for non-array")
	}
	if _, err := Strings(Arr(Int(1))); err == nil {
		t.Fatal("expected error for non-string element")
	}
}

// startTestServer launches a server on a random port.
func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	db := gdb.New()
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 0)
	g.AddEdge(0, "b", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	db.AddGraph("cycles", g)
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

func TestServerPingEcho(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("ECHO", "hello")
	if err != nil || v.Str != "hello" {
		t.Fatalf("echo = %+v, %v", v, err)
	}
	if _, err := c.Do("NOSUCH"); err == nil {
		t.Fatal("expected error for unknown command")
	}
}

func TestServerGraphQueryEndToEnd(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The a^n b^n query over the two cycles: vertex 0 relates to itself.
	reply, err := c.GraphQuery("cycles", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		WHERE id(v) = 0
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Columns) != 2 || reply.Columns[0] != "v" {
		t.Fatalf("columns = %v", reply.Columns)
	}
	found := false
	for _, row := range reply.Rows {
		if row[0] == 0 && row[1] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing (0,0) in %v", reply.Rows)
	}
	if len(reply.Stats) == 0 {
		t.Fatal("missing stats")
	}
}

func TestServerCreateListDelete(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.GraphQuery("new", `CREATE (a:N)-[:e]->(b:N)`); err != nil {
		t.Fatal(err)
	}
	names, err := c.GraphList()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 { // cycles + new
		t.Fatalf("list = %v", names)
	}
	if err := c.GraphDelete("new"); err != nil {
		t.Fatal(err)
	}
	if err := c.GraphDelete("new"); err == nil {
		t.Fatal("double delete must fail")
	}
}

func TestServerExplain(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lines, err := c.GraphExplain("cycles", `MATCH (v)-[:a]->(u) RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"Project", "CondTraverse", "AllNodeScan"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("explain missing %q:\n%s", want, joined)
		}
	}
}

func TestServerStatsDumpRestore(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, err := c.Do("GRAPH.STATS", "cycles")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, l := range v.Array {
		joined += l.Str + "\n"
	}
	if !strings.Contains(joined, "Vertices: 4") || !strings.Contains(joined, "Label a: 2") {
		t.Fatalf("stats = %s", joined)
	}

	dump, err := c.Do("GRAPH.DUMP", "cycles")
	if err != nil || dump.Kind != BulkString {
		t.Fatalf("dump: %v %v", dump, err)
	}
	if _, err := c.Do("GRAPH.RESTORE", "copy", dump.Str); err != nil {
		t.Fatal(err)
	}
	reply, err := c.GraphQuery("copy", `MATCH (v)-[:a]->(u) RETURN count(*)`)
	if err != nil || len(reply.Rows) != 1 || reply.Rows[0][0] != 2 {
		t.Fatalf("restored query: %v %v", reply, err)
	}
	if _, err := c.Do("GRAPH.STATS", "missing"); err == nil {
		t.Fatal("expected error for missing graph")
	}
}

// TestServerRestoreRefusesHugeVertex: a GRAPH.RESTORE whose one line
// names vertex 500 000 000 gets an error reply naming the row-slot bound
// instead of the server allocating gigabytes, and the same connection
// keeps answering.
func TestServerRestoreRefusesHugeVertex(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do("GRAPH.RESTORE", "huge", "000000500000000 0 0")
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "row slots") {
		t.Fatalf("restore = %v, want an error reply naming the row-slot bound", err)
	}
	reply, err := c.GraphQuery("cycles", `MATCH (v)-[:a]->(u) RETURN count(*)`)
	if err != nil || len(reply.Rows) != 1 || reply.Rows[0][0] != 2 {
		t.Fatalf("query after the refused restore: %v %v", reply, err)
	}
	if _, err := c.Do("GRAPH.STATS", "huge"); err == nil {
		t.Fatal("the refused restore created a graph")
	}
}

// TestServerRefusesDeepPathExpression sends a GRAPH.QUERY whose path
// expression nests a million brackets deep, 2 MB of text: an error
// reply, not a stack overflow, and the connection keeps answering.
func TestServerRefusesDeepPathExpression(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const levels = 1_000_000
	q := "MATCH (v)-/ " + strings.Repeat("[", levels) + ":a" + strings.Repeat("]", levels) +
		" /->(to) WHERE id(v) = 0 RETURN count(to)"
	_, err = c.GraphQuery("cycles", q)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested deeper") {
		t.Fatalf("deep query = %v, want an error reply naming the nesting bound", err)
	}
	reply, err := c.GraphQuery("cycles", `MATCH (v)-[:a]->(u) RETURN count(*)`)
	if err != nil || len(reply.Rows) != 1 || reply.Rows[0][0] != 2 {
		t.Fatalf("query after the refused one: %v %v", reply, err)
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Plain text lines, as typed into netcat; blank lines are ignored.
	if _, err := conn.Write([]byte("\nPING\nGRAPH.LIST\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	pong, err := Read(r)
	if err != nil || pong.Str != "PONG" {
		t.Fatalf("inline PING reply = %+v, %v", pong, err)
	}
	list, err := Read(r)
	if err != nil || list.Kind != Array || len(list.Array) != 1 || list.Array[0].Str != "cycles" {
		t.Fatalf("inline GRAPH.LIST reply = %+v, %v", list, err)
	}
}

func TestServerQuit(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("QUIT"); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection after QUIT; subsequent commands
	// must fail.
	if err := c.Ping(); err == nil {
		t.Fatal("expected closed connection after QUIT")
	}
	c.Close()
}
