package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
)

// The reply path (DESIGN.md §15) replaced a Value tree per result and a
// Fprintf per line with digits appended into the connection's buffer.
// The old encoder stays here, test-only, as the reference the new one
// must match byte for byte.

func refWrite(w *bufio.Writer, v Value) error {
	switch v.Kind {
	case SimpleString:
		_, err := fmt.Fprintf(w, "+%s\r\n", v.Str)
		return err
	case ErrorString:
		msg := v.Str
		if !hasErrorCode(msg) {
			msg = "ERR " + msg
		}
		_, err := fmt.Fprintf(w, "-%s\r\n", msg)
		return err
	case Integer:
		_, err := fmt.Fprintf(w, ":%d\r\n", v.Int)
		return err
	case BulkString:
		if v.Null {
			_, err := w.WriteString("$-1\r\n")
			return err
		}
		_, err := fmt.Fprintf(w, "$%d\r\n%s\r\n", len(v.Str), v.Str)
		return err
	case Array:
		if v.Null {
			_, err := w.WriteString("*-1\r\n")
			return err
		}
		if _, err := fmt.Fprintf(w, "*%d\r\n", len(v.Array)); err != nil {
			return err
		}
		for _, e := range v.Array {
			if err := refWrite(w, e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("resp: unknown kind %q", v.Kind)
	}
}

func refEncodeResult(res *gdb.QueryResult) Value {
	header := make([]Value, len(res.Columns))
	for i, c := range res.Columns {
		header[i] = Bulk(c)
	}
	rows := make([]Value, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]Value, len(row))
		for j, v := range row {
			cells[j] = Int(v)
		}
		rows[i] = Arr(cells...)
	}
	stats := []Value{
		Bulk(fmt.Sprintf("Nodes created: %d", res.NodesCreated)),
		Bulk(fmt.Sprintf("Relationships created: %d", res.EdgesCreated)),
		Bulk(fmt.Sprintf("Rows returned: %d", len(res.Rows))),
	}
	for _, l := range res.Profile {
		stats = append(stats, Bulk(l))
	}
	return Arr(Arr(header...), Arr(rows...), Arr(stats...))
}

// encodeWith runs an encoder over a writer with the connection's
// default buffer and returns the bytes.
func encodeWith(t testing.TB, encode func(*bufio.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encode(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// denseResult is an n x cols result of vertex-id-sized cells.
func denseResult(n, cols int) *gdb.QueryResult {
	res := &gdb.QueryResult{}
	for c := 0; c < cols; c++ {
		res.Columns = append(res.Columns, fmt.Sprintf("c%d", c))
	}
	for i := 0; i < n; i++ {
		row := make([]int64, cols)
		for c := range row {
			row[c] = int64((i*7 + c*13) % 900)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func TestReplyEncoderMatchesReference(t *testing.T) {
	extremes := []int64{0, -1, 9, 10, -10, 999999999999999999, 1000000000000000000,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	rng := rand.New(rand.NewPCG(15, 15))
	var cases []*gdb.QueryResult
	for _, cols := range []int{0, 1, 2, 3, 300} { // 300 cells: a row wider than the 4 KiB buffer
		for _, n := range []int{0, 1, 2, 171, 6055} {
			if cols == 300 && n > 2 {
				continue
			}
			res := denseResult(n, cols)
			for _, row := range res.Rows {
				for c := range row {
					switch rng.IntN(4) {
					case 0:
						row[c] = extremes[rng.IntN(len(extremes))]
					case 1:
						row[c] = rng.Int64() - rng.Int64()
					}
				}
			}
			cases = append(cases, res)
			if n <= 2 {
				profiled := *res
				profiled.Profile = []string{"query 1.5ms", "  parse 0.1ms", "", strings.Repeat("x", 5000)}
				cases = append(cases, &profiled)
			}
		}
	}
	cases = append(cases,
		&gdb.QueryResult{NodesCreated: 3, EdgesCreated: 2},
		&gdb.QueryResult{NodesCreated: math.MaxInt32, EdgesCreated: -1},
	)
	for _, res := range cases {
		name := fmt.Sprintf("%dx%d/profile=%d/created=%d", len(res.Rows), len(res.Columns), len(res.Profile), res.NodesCreated)
		tree := refEncodeResult(res)
		want := encodeWith(t, func(w *bufio.Writer) error { return refWrite(w, tree) })
		if got := encodeWith(t, queryReply{asCells(res)}.encode); !bytes.Equal(got, want) {
			t.Fatalf("%s: direct encoder differs from the reference at byte %d of %d", name, firstDiff(got, want), len(want))
		}
		if got := encodeWith(t, func(w *bufio.Writer) error { return Write(w, tree) }); !bytes.Equal(got, want) {
			t.Fatalf("%s: Write differs from the reference at byte %d of %d", name, firstDiff(got, want), len(want))
		}
		back, err := Read(bufio.NewReader(bytes.NewReader(want)))
		if err != nil {
			t.Fatalf("%s: Read of reference bytes: %v", name, err)
		}
		if !reflect.DeepEqual(back, tree) {
			t.Fatalf("%s: reference bytes decode to a different value", name)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWriteMatchesReferenceOnEveryKind covers the values a query reply
// never contains.
func TestWriteMatchesReferenceOnEveryKind(t *testing.T) {
	long := strings.Repeat("long ", 2000) // past the writer's buffer
	for _, v := range []Value{
		OK(), Simple(""), Simple(long), Errorf("boom"), Busyf("%d running", 4), Errorf("%s", long),
		Int(0), Int(math.MinInt64), Bulk(""), Bulk("a\r\nb"), Bulk(long), {Kind: BulkString, Null: true},
		Arr(), {Kind: Array, Null: true}, Arr(Int(1), Arr(Bulk("x"), Arr()), Value{Kind: BulkString, Null: true}, Simple("s")),
	} {
		want := encodeWith(t, func(w *bufio.Writer) error { return refWrite(w, v) })
		if got := encodeWith(t, func(w *bufio.Writer) error { return Write(w, v) }); !bytes.Equal(got, want) {
			t.Errorf("Write(%+v) = %q, reference %q", v, got, want)
		}
	}
	if err := Write(bufio.NewWriter(io.Discard), Value{Kind: '?'}); err == nil {
		t.Error("Write of an unknown kind: expected an error")
	}
}

// TestReplyAllocs guards both ends of the wire (the style of
// matrix.TestMulAllocsPooled): a 6000 x 2 result — one dense-scan
// reply — encodes without a per-row allocation at all, and decodes into
// the Value tree with its 6000 row arrays cut from a few dozen chunks.
// Before this change: 14 665 and 24 275 allocations. A Client decodes
// the same reply over loopback with its row list allocated once, at its
// length: 18 000 Values of 56 bytes and the chunks' slack.
func TestReplyAllocs(t *testing.T) {
	res := asCells(denseResult(6000, 2))
	w := bufio.NewWriter(io.Discard)
	encode := testing.AllocsPerRun(20, func() {
		if err := (queryReply{res}).encode(w); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 8 {
		t.Errorf("encoding a 6000x2 reply allocates %.0f objects, want <= 8", encode)
	}
	wire := encodeWith(t, queryReply{res}.encode)
	src := bytes.NewReader(wire)
	r := bufio.NewReader(src)
	decode := testing.AllocsPerRun(20, func() {
		src.Reset(wire)
		r.Reset(src)
		if v, err := Read(r); err != nil || len(v.Array[1].Array) != 6000 {
			t.Fatal(err)
		}
	})
	if decode > 64 {
		t.Errorf("decoding a 6000x2 reply allocates %.0f objects, want <= 64", decode)
	}

	c, err := Dial(cannedServer(t, false, wire))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	do := func() {
		if v, err := c.Do("GRAPH.QUERY", "g", "q"); err != nil || len(v.Array[1].Array) != 6000 {
			t.Fatal(err)
		}
	}
	client := testing.AllocsPerRun(20, do)
	if client > 64 {
		t.Errorf("Client.Do of a 6000x2 reply allocates %.0f objects, want <= 64", client)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1_150_000 {
		t.Errorf("Client.Do of a 6000x2 reply allocates %d bytes, want <= 1 150 000", perOp)
	}
}

// cannedServer answers each command on a loopback connection with the
// next of replies, in turn: round and round, or, with hangUp, closing
// the connection after the last one.
func cannedServer(t testing.TB, hangUp bool, replies ...[]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for i := 0; !hangUp || i < len(replies); i++ {
					if _, err := Read(r); err != nil {
						return
					}
					if _, err := conn.Write(replies[i%len(replies)]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientLongRepliesDoNotAlias pins the ownership of a reply decoded
// through a Client's scratch: a 6000-row reply stays whole while the
// next one is decoded in the same room.
func TestClientLongRepliesDoNotAlias(t *testing.T) {
	second := denseResult(6000, 2)
	for _, row := range second.Rows {
		row[0] += 1000
	}
	wires := [][]byte{encodeWith(t, queryReply{asCells(denseResult(6000, 2))}.encode), encodeWith(t, queryReply{asCells(second)}.encode)}
	c, err := Dial(cannedServer(t, false, wires...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []Value
	for range wires {
		v, err := c.Do("GRAPH.QUERY", "g", "q")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	for i, wire := range wires {
		want, err := Read(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("reply %d changed after a later Do", i)
		}
	}
	if cap(c.scratch) < 6000 || !zeroValues(c.scratch) {
		t.Errorf("scratch of capacity %d: want >= 6000, all zero between calls", cap(c.scratch))
	}
}

// TestClientDropsAnOversizedScratch reads an array one past the kept
// scratch size: the reply decodes whole and the scratch is let go, so a
// Client does not hold 56 bytes per element of its longest reply ever.
func TestClientDropsAnOversizedScratch(t *testing.T) {
	n := scratchKeepMax + 1
	wire := fmt.Sprintf("*%d\r\n%s*17\r\n%s", n, strings.Repeat(":1\r\n", n), strings.Repeat(":2\r\n", 17))
	r := bufio.NewReader(strings.NewReader(wire))
	var scratch []Value
	if v, err := readValue(r, &scratch); err != nil || len(v.Array) != n || scratch != nil {
		t.Fatalf("array of %d: %d elements, %v, scratch of capacity %d kept", n, len(v.Array), err, cap(scratch))
	}
	if v, err := readValue(r, &scratch); err != nil || len(v.Array) != 17 || cap(scratch) != 17 || !zeroValues(scratch) {
		t.Fatalf("array of 17 after it: %d elements, %v, scratch of capacity %d", len(v.Array), err, cap(scratch))
	}
}

// TestClientTornReplyLeavesNoStaleElements cuts a 6000-row reply off
// mid-array with a server close: the call fails as a broken connection,
// and the scratch keeps none of the rows it had decoded.
func TestClientTornReplyLeavesNoStaleElements(t *testing.T) {
	wire := encodeWith(t, queryReply{asCells(denseResult(6000, 2))}.encode)
	c, err := Dial(cannedServer(t, true, wire, wire[:len(wire)/2]))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do("GRAPH.QUERY", "g", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("GRAPH.QUERY", "g", "q"); !IsBrokenConn(err) {
		t.Fatalf("Do of a torn reply = %v, want a broken connection", err)
	}
	if cap(c.scratch) < 6000 || !zeroValues(c.scratch) {
		t.Errorf("scratch of capacity %d after a torn reply: want >= 6000, all zero", cap(c.scratch))
	}
}

func BenchmarkReplyEncode(b *testing.B) {
	for _, n := range []int{10, 6000} {
		b.Run(fmt.Sprintf("%dx2", n), func(b *testing.B) {
			res := asCells(denseResult(n, 2))
			w := bufio.NewWriter(io.Discard)
			b.SetBytes(int64(len(encodeWith(b, queryReply{res}.encode))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := (queryReply{res}).encode(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var decoded Value

func BenchmarkReplyDecode(b *testing.B) {
	for _, n := range []int{10, 6000} {
		b.Run(fmt.Sprintf("%dx2", n), func(b *testing.B) {
			wire := encodeWith(b, queryReply{asCells(denseResult(n, 2))}.encode)
			src := bytes.NewReader(wire)
			r := bufio.NewReader(src)
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(wire)
				r.Reset(src)
				var err error
				if decoded, err = Read(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientReadout is the client's side of a dense-scan query:
// Client.Do of a 6000 x 2 reply from a loopback server that answers
// every command with the same bytes.
func BenchmarkClientReadout(b *testing.B) {
	wire := encodeWith(b, queryReply{asCells(denseResult(6000, 2))}.encode)
	c, err := Dial(cannedServer(b, false, wire))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decoded, err = c.Do("GRAPH.QUERY", "g", "q"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCachedRowsSurviveLaterExecutions is the ownership rule seen from
// two connections with the query cache on: a result answered from the
// cache, after many other executions have come and gone through the
// same operators, buffers and connections, is the one an uncached
// database computes. A cached row that aliased a buffer some later
// execution reuses would fail the comparison, and under -race show up
// as a write racing the other connection's encoder.
func TestCachedRowsSurviveLaterExecutions(t *testing.T) {
	const n, fan = 40, 25
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= fan; k++ {
			g.AddEdge(v, "e", (v*7+k*k)%n)
		}
	}
	query := func(v int) string {
		return fmt.Sprintf("MATCH (v)-[:e]->(m)-[:e]->(to) WHERE id(v) IN [%d, %d] RETURN v, to", v, (v+1)%n)
	}
	cached := gdb.New()
	cached.SetPolicy(gdb.Policy{CacheMaxBytes: 64 << 20})
	cached.AddGraph("g", g)
	_, addr := startConfiguredServer(t, cached, nil)
	plain := gdb.New() // Policy zero value: no cache
	plain.AddGraph("g", g)

	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for round := 0; round < 3; round++ {
				// Both connections walk the same texts from opposite
				// ends, so each text is computed by one connection's
				// execution and served from the cache to the other (and
				// to both on later rounds) with other executions between.
				for i := 0; i < n; i++ {
					v := i
					if conn == 1 {
						v = n - 1 - i
					}
					got, err := c.GraphQuery("g", query(v))
					if err != nil {
						t.Error(err)
						return
					}
					want, err := plain.Query("g", query(v))
					if err != nil {
						t.Error(err)
						return
					}
					if len(want.Rows) < fan || !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Errorf("connection %d round %d: %q answered %d rows, uncached evaluation %d", conn, round, query(v), len(got.Rows), len(want.Rows))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := cached.Cache().Stats(); st.Hits < 4*n {
		t.Fatalf("cache served %d hits, want >= %d: the test did not exercise cached rows", st.Hits, 4*n)
	}
}
