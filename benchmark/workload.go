package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mscfpq/internal/dataset"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// graphKey is the name every workload's graph is restored under.
const graphKey = "bench"

// The paper's queries (PAPER.md §3.2, eq. 1 and 2) as PATH PATTERN
// declarations; replies are checked against grammar.G1/G2 evaluated by
// cfpq.AllPairs, so the texts and the grammars vouch for each other.
const (
	declG1 = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() "
	declG2 = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() "
)

// chunk is the number of sources per timed query (the paper's middle
// chunk size, §3.2).
const chunk = 10

// writeText is the mixed-rw mutation: three new vertices a, b, c (ids
// n, n+1, n+2 on a graph of n vertices) with a-subClassOf->b and
// c-type->a, so a reaches itself under G1 from the new version on.
const writeText = "CREATE (a:N)-[:subClassOf]->(b:N), (c:N)-[:type]->(a)"

// applyWrite performs writeText on a harness-side copy of the graph and
// returns the id of a.
func applyWrite(g *graph.Graph) int {
	a := g.NumVertices()
	for v := a; v < a+3; v++ {
		g.AddVertexLabel(v, "N")
	}
	g.AddEdge(a, "subClassOf", a+1)
	g.AddEdge(a+2, "type", a)
	return a
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opRestore
)

// op is one request. Reads carry the digest of the row set the
// reference relation predicts (for a count query, its row count alone);
// src is kept for the traced run's mirror index.
type op struct {
	kind  opKind
	args  []string
	src   []int
	count bool
	want  digest
}

// unit is the smallest piece of work a workload repeats: an untimed
// prelude on the first connection (restore, warm-up) and one timed
// script per connection, run concurrently. Every unit of a workload
// does the same amount of work, so latencies of different units pool.
type unit struct {
	prelude []op
	conns   [][]op
}

// workload is one named traffic mix over one generated graph.
type workload struct {
	name string
	why  string

	dataset string
	scale   float64
	decl    string
	gram    func() *grammar.Grammar
	// oracle asks for the reference relation to be cross-checked against
	// internal/oracle, which is cubic and affordable on core only.
	oracle bool

	// unitSeconds is what one unit (prelude included) costs on the
	// baseline machine; -seconds divided by it sets the unit count, so
	// a run does a fixed amount of work rather than racing a clock.
	unitSeconds float64
	// traceCost is how many times longer a unit takes in the lockstep
	// traced round, where the harness redoes each request on its
	// in-process mirrors.
	traceCost float64

	// unit returns the i-th unit of a run; first marks the first unit of
	// a round, which runs against a server that holds no graph yet.
	unit func(b *built, i int, first bool) (unit, error)
}

// built is a workload's generated input: the graph, its dump for
// GRAPH.RESTORE and the reference relation at version 0.
type built struct {
	wl   *workload
	g    *graph.Graph
	w    *grammar.WCNF
	dump string
	ref  *reference
	seed int64
}

func (wl *workload) build(seed int64) (*built, error) {
	spec, err := dataset.ByName(wl.dataset)
	if err != nil {
		return nil, err
	}
	g := dataset.Generate(dataset.Scaled(spec, wl.scale))
	var dump strings.Builder
	if err := graph.Write(&dump, g); err != nil {
		return nil, err
	}
	w, err := grammar.ToWCNF(wl.gram())
	if err != nil {
		return nil, err
	}
	ref, err := newReference(g, w)
	if err != nil {
		return nil, err
	}
	if wl.oracle {
		if err := ref.crossCheck(g, w); err != nil {
			return nil, err
		}
	}
	return &built{wl: wl, g: g, w: w, dump: dump.String(), ref: ref, seed: seed}, nil
}

func (b *built) restore() op {
	return op{kind: opRestore, args: []string{"GRAPH.RESTORE", graphKey, b.dump}}
}

// read builds the query returning the pairs reachable from the given
// sources, expecting ref's answer.
func (b *built) read(src []int, ref *reference) op {
	return op{kind: opRead, args: []string{"GRAPH.QUERY", graphKey, b.text(src, "v, to")}, src: src, want: ref.of(src)}
}

// count builds the query returning only how many pairs are reachable
// from the given sources (the form the paper's full-stack runs use, so
// that the reply does not outweigh the evaluation).
func (b *built) count(src []int) op {
	return op{kind: opRead, args: []string{"GRAPH.QUERY", graphKey, b.text(src, "count(to)")}, src: src,
		count: true, want: digest{n: b.ref.of(src).n}}
}

func (b *built) text(src []int, returns string) string {
	var t strings.Builder
	t.WriteString(b.wl.decl)
	t.WriteString("MATCH (v)-/ ~S /->(to) WHERE id(v) IN [")
	for i, s := range src {
		if i > 0 {
			t.WriteString(", ")
		}
		t.WriteString(strconv.Itoa(s))
	}
	t.WriteString("] RETURN ")
	t.WriteString(returns)
	return t.String()
}

// reads cuts vertices into disjoint queries of size sources each,
// dropping a short tail.
func (b *built) reads(vertices []int, size int) []op {
	out := make([]op, 0, len(vertices)/size)
	for i := 0; i+size <= len(vertices); i += size {
		out = append(out, b.read(vertices[i:i+size], b.ref))
	}
	return out
}

// rng derives a generator from the run seed and a stream number, so a
// unit's requests do not depend on how many units ran before it.
func (b *built) rng(stream int) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + int64(stream)))
}

// sparseSweep: every unit restores the store and sends `queries`
// disjoint chunk queries; `slices` consecutive units take disjoint
// slices of one seeded permutation of V, so a run of that many units
// uses every vertex as a source at most once (PAPER.md §3.2).
func sparseSweep(dataset string, scale float64, queries, slices int) *workload {
	return &workload{
		name:        "sparse-sweep",
		why:         "pathways/G1 chunk-10 sweep from a cold index, 1 connection: small fixpoints and small replies, so per-query fixed cost (parse, plan, index bookkeeping, kernel call overhead) does the work",
		dataset:     dataset,
		scale:       scale,
		decl:        declG1,
		gram:        grammar.G1,
		unitSeconds: 1.5,
		traceCost:   4,
		unit: func(b *built, i int, _ bool) (unit, error) {
			perm := b.rng(i / slices).Perm(b.g.NumVertices())
			lo := (i % slices) * queries * chunk
			return unit{
				prelude: []op{b.restore()},
				conns:   [][]op{b.reads(perm[lo:lo+queries*chunk], chunk)},
			}, nil
		},
	}
}

// coldSources is the source count of a dense-cold query. On the layered
// hierarchy the cost of the first query depends on which levels its
// sources sit in: ten random sources cost anywhere from 30 to 180 ms on
// the baseline machine, a hundred cover every level and cost the same
// within a few percent, so the op repeats.
const coldSources = 10 * chunk

// denseCold: every unit is one restore and the first query against the
// restored store.
func denseCold(dataset string, scale float64) *workload {
	return &workload{
		name:        "dense-cold",
		why:         "go-hierarchy@0.02/G2: each op is the first chunk-100 count query on a freshly restored store, almost all cfpq fixpoint rounds over matrix kernels; cache and front-end changes must not move it",
		dataset:     dataset,
		scale:       scale,
		decl:        declG2,
		gram:        grammar.G2,
		unitSeconds: 0.2,
		traceCost:   4,
		unit: func(b *built, i int, _ bool) (unit, error) {
			src := b.rng(i).Perm(b.g.NumVertices())[:coldSources]
			return unit{
				prelude: []op{b.restore()},
				conns:   [][]op{{b.count(src)}},
			}, nil
		},
	}
}

// denseScan: the round's first unit restores the store and saturates
// the index with chunk-100 queries; every unit then reads all of V
// back in chunk queries over a fresh permutation, so no text repeats.
func denseScan(dataset string, scale float64) *workload {
	return &workload{
		name:        "dense-scan",
		why:         "same graph and grammar, index saturated in set-up: distinct chunk-10 texts (cache misses, ~6k rows each, working set beyond the cache) leave the work to row read-out, plan streaming and resp encoding",
		dataset:     dataset,
		scale:       scale,
		decl:        declG2,
		gram:        grammar.G2,
		unitSeconds: 0.35,
		traceCost:   3,
		unit: func(b *built, i int, first bool) (unit, error) {
			u := unit{conns: [][]op{b.reads(b.rng(i).Perm(b.g.NumVertices()), chunk)}}
			if first {
				u.prelude = append([]op{b.restore()}, b.reads(b.rng(-1).Perm(b.g.NumVertices()), coldSources)...)
			}
			return u, nil
		},
	}
}

// mixedRW: see mixedUnit.
func mixedRW(dataset string, scale float64, pool, ops, writes int) *workload {
	return &workload{
		name:        "mixed-rw",
		why:         "core/G1, 2 connections, durable: Zipf reads over 128 cached texts beside 0.5% fsynced CREATEs; p50 is the cache-hit path, p95 the post-write invalidate-and-recompute path, the only concurrent mix",
		dataset:     dataset,
		scale:       scale,
		decl:        declG1,
		gram:        grammar.G1,
		oracle:      true,
		unitSeconds: 2.5,
		traceCost:   4,
		unit: func(b *built, i int, _ bool) (unit, error) {
			return mixedUnit(b, i, pool, ops, writes)
		},
	}
}

// workloads are the benchmark's four traffic mixes at their stated
// sizes. BENCHMARK.json lists the same names and reasons.
var workloads = []*workload{
	sparseSweep("pathways", 1, 62, 10), // 10 x 62 = 620 of the 623 full chunks of one sweep
	denseCold("go-hierarchy", 0.02),
	denseScan("go-hierarchy", 0.02),
	mixedRW("core", 1, 128, 1500, 8),
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mixedZipfS skews mixed-rw reads towards a few hot texts.
const mixedZipfS = 1.1

// mixedUnit builds one mixed-rw unit: restore, one warming read of each
// of the pool's texts, then ops operations on each of two connections.
// The pool is fixed by the run seed; the unit's generator draws the
// Zipf streams and the write positions. Connection B is the only
// writer, so the version each of its reads sees is known when the
// script is written, and its answer is checked against the reference
// relation of exactly that version; the read after a write adds the
// new vertex a to its sources, so an answer from the stale version
// misses the row (a, a) and fails. Connection A races B's writes but
// reads only version-0 vertices, whose rows no write may change
// (checked here for every version).
func mixedUnit(b *built, i, pool, ops, writes int) (unit, error) {
	base := b.g.NumVertices()
	poolPerm := b.rng(-1).Perm(base)
	texts := make([][]int, pool)
	for j := range texts {
		texts[j] = poolPerm[j*chunk : (j+1)*chunk]
	}
	warm := make([]op, 0, pool+1)
	warm = append(warm, b.restore())
	for _, src := range texts {
		warm = append(warm, b.read(src, b.ref))
	}

	rng := b.rng(i)
	zipf := rand.NewZipf(rng, mixedZipfS, 1, uint64(pool-1))
	connA := make([]op, ops)
	for j := range connA {
		connA[j] = b.read(texts[zipf.Uint64()], b.ref)
	}

	// Writes are evenly spaced from a seeded offset, so every write is
	// followed by the same number of reads: how many texts miss after it
	// is then up to the Zipf draws alone. The last op is never a write.
	gap := ops / writes
	offset := rng.Intn(gap - 1)
	isWrite := make([]bool, ops)
	for j := 0; j < writes; j++ {
		isWrite[offset+j*gap] = true
	}
	connB := make([]op, 0, ops)
	g := b.g.CowClone()
	ref, newest := b.ref, -1
	for j := 0; j < ops; j++ {
		if isWrite[j] {
			newest = applyWrite(g)
			next, err := newReference(g, b.w)
			if err != nil {
				return unit{}, err
			}
			for v := 0; v < base; v++ {
				if next.rows[v] != b.ref.rows[v] {
					return unit{}, fmt.Errorf("mixed-rw: write changed the rows of version-0 vertex %d", v)
				}
			}
			ref = next
			connB = append(connB, op{kind: opWrite, args: []string{"GRAPH.QUERY", graphKey, writeText}})
			continue
		}
		src := texts[zipf.Uint64()]
		if newest >= 0 {
			src = append(append([]int{}, src...), newest)
			newest = -1
		}
		connB = append(connB, b.read(src, ref))
	}
	return unit{prelude: warm, conns: [][]op{connA, connB}}, nil
}
