package main

import (
	"fmt"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
	"mscfpq/internal/resp"
)

// digest identifies a set of (v, to) rows: their count and the sum of
// their mixed hashes. Sums commute, so the digest of a reply does not
// depend on row order and the digest of a chunk is the sum of its
// sources' digests. Comparing digests keeps the per-reply check to a
// few microseconds even for replies of thousands of rows.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(v, to int64) {
	// splitmix64 finalizer over the packed pair.
	x := uint64(v)<<32 ^ uint64(to)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.n++
	d.sum += x
}

// reference is the expected answer of every single-source query on one
// graph version: rows[v] digests the start-relation row of v.
type reference struct {
	rows []digest
}

// newReference evaluates the all-pairs relation once (Algorithm 1) and
// digests it row by row.
func newReference(g *graph.Graph, w *grammar.WCNF) (*reference, error) {
	res, err := cfpq.AllPairs(g, w)
	if err != nil {
		return nil, fmt.Errorf("reference relation: %w", err)
	}
	ref := &reference{rows: make([]digest, g.NumVertices())}
	start := res.Start()
	for v := range ref.rows {
		for _, to := range start.Row(v) {
			ref.rows[v].add(int64(v), int64(to))
		}
	}
	return ref, nil
}

// of returns the expected digest of a query over distinct sources.
func (r *reference) of(src []int) digest {
	var d digest
	for _, v := range src {
		d.n += r.rows[v].n
		d.sum += r.rows[v].sum
	}
	return d
}

// crossCheck compares the reference with the map-based oracle, which
// shares no code with the matrix kernels. The oracle is cubic; the
// harness runs this on core only.
func (r *reference) crossCheck(g *graph.Graph, w *grammar.WCNF) error {
	want := make([]digest, len(r.rows))
	for _, p := range oracle.CFPQ(g, w).StartPairs() {
		want[p[0]].add(int64(p[0]), int64(p[1]))
	}
	for v := range want {
		if want[v] != r.rows[v] {
			return fmt.Errorf("reference row %d (%d pairs) disagrees with the oracle (%d pairs)", v, r.rows[v].n, want[v].n)
		}
	}
	return nil
}

// replyDigest digests a GRAPH.QUERY reply: its (v, to) rows, or for a
// count query the single cell holding the count.
func replyDigest(v resp.Value, count bool) (digest, error) {
	var d digest
	if v.Kind != resp.Array || len(v.Array) != 3 {
		return d, fmt.Errorf("malformed GRAPH.QUERY reply")
	}
	rows := v.Array[1].Array
	if count {
		if len(rows) != 1 || len(rows[0].Array) != 1 || rows[0].Array[0].Kind != resp.Integer {
			return d, fmt.Errorf("count query did not return one integer")
		}
		return digest{n: int(rows[0].Array[0].Int)}, nil
	}
	for _, row := range rows {
		if len(row.Array) != 2 || row.Array[0].Kind != resp.Integer || row.Array[1].Kind != resp.Integer {
			return d, fmt.Errorf("row is not a pair of integers")
		}
		d.add(row.Array[0].Int, row.Array[1].Int)
	}
	return d, nil
}

// resultDigest is replyDigest for the rows of an in-process result.
func resultDigest(rows [][]int64, count bool) (digest, error) {
	var d digest
	if count {
		if len(rows) != 1 || len(rows[0]) != 1 {
			return d, fmt.Errorf("count query did not return one integer")
		}
		return digest{n: int(rows[0][0])}, nil
	}
	for _, row := range rows {
		if len(row) != 2 {
			return d, fmt.Errorf("row is not a pair of integers")
		}
		d.add(row[0], row[1])
	}
	return d, nil
}

// checkReply reports why a reply to o is wrong, or nil.
func checkReply(o op, v resp.Value, err error) error {
	if err != nil {
		return err
	}
	switch o.kind {
	case opRead:
		got, err := replyDigest(v, o.count)
		if err != nil {
			return err
		}
		if got != o.want {
			return fmt.Errorf("wrong answer: %d rows, want %d (or same count, different rows)", got.n, o.want.n)
		}
	case opWrite:
		if len(v.Array) != 3 || len(v.Array[2].Array) < 2 ||
			v.Array[2].Array[0].Str != "Nodes created: 3" || v.Array[2].Array[1].Str != "Relationships created: 2" {
			return fmt.Errorf("unexpected CREATE reply")
		}
	case opRestore:
		if v.Str != "OK" {
			return fmt.Errorf("unexpected GRAPH.RESTORE reply %q", v.Str)
		}
	}
	return nil
}
