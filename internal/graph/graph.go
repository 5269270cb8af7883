// Package graph implements the paper's data model (Definitions 2.1-2.8):
// finite directed graphs whose edges and vertices carry label sets,
// represented as the Boolean decomposition of the adjacency and
// vertex-label matrices — one sparse Boolean matrix per label.
//
// Following the paper's x̄ notation, asking for the edge matrix of label
// "x_r" yields the transpose of the matrix of "x" (cached), so query
// grammars can traverse relations backwards without materializing
// inverse edges in the data.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// Graph is an edge- and vertex-labeled directed graph over vertices
// 0..N-1 stored as Boolean label matrices.
//
// Graphs grow on demand: adding an edge or label mentioning vertex v
// extends the vertex set to include v. Mutation must not overlap with
// any other use, but concurrent readers are safe: the only state a read
// path touches is the inverse-label transpose cache, which has its own
// lock.
type Graph struct {
	n       int
	edges   map[string]*matrix.Bool   // label -> adjacency matrix E^l
	vlabels map[string]*matrix.Vector // label -> diagonal vertex set V^l
	nedges  int

	// The lineage stamp (GrewApart): gen counts the clones since New,
	// base is the vertex count this generation began with, and touched
	// is the latest generation that added an entry at a vertex below
	// its base.
	gen, base, touched int

	tmu        sync.Mutex
	transposed map[string]*matrix.Bool // guarded by tmu: cache for inverse-label matrices
}

// New returns an empty graph with capacity for n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative size %d", n))
	}
	return &Graph{
		n:          n,
		edges:      map[string]*matrix.Bool{},
		vlabels:    map[string]*matrix.Vector{},
		transposed: map[string]*matrix.Bool{},
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of (edge, label) pairs, i.e. the total
// number of true entries across the Boolean decomposition.
func (g *Graph) NumEdges() int { return g.nedges }

// grow extends the vertex set so that vertex v exists.
func (g *Graph) grow(v int) {
	if v < g.n {
		return
	}
	g.n = v + 1
	for _, m := range g.edges {
		m.Resize(g.n, g.n)
	}
	// Vectors cannot grow; rebuild. Vertex-label vectors are tiny
	// relative to edge matrices, so this stays cheap.
	for l, vec := range g.vlabels {
		if vec.Size() < g.n {
			g.vlabels[l] = matrix.NewVectorFromIndices(g.n, vec.Ints())
		}
	}
	g.tmu.Lock()
	g.transposed = map[string]*matrix.Bool{}
	g.tmu.Unlock()
}

// CowClone returns a copy-on-write clone for epoch-versioned
// snapshotting (internal/store): edge matrices share rows with the
// original until either side mutates them, vertex-label vectors (tiny)
// are deep-copied, and the transpose cache starts empty. Mutating the
// clone — including growing it — never changes the original, and vice
// versa; cloning an immutable snapshot therefore yields a mutable next
// version at O(labels + vertices) cost instead of O(edges).
func (g *Graph) CowClone() *Graph { return g.clone((*matrix.Bool).CloneCOW) }

// CloneFrozen is CowClone for a graph that will never be mutated
// again — the next-version transaction over a published store
// snapshot. Edge matrices are cloned with matrix.CloneFrozen, which
// leaves the source untouched (no shared-bitmap writes), so the
// snapshot stays immutable after publish while the clone still copies
// rows lazily. The caller owns the freeze promise; use CowClone when
// both sides remain mutable.
func (g *Graph) CloneFrozen() *Graph { return g.clone((*matrix.Bool).CloneFrozen) }

// clone copies g with cloneEdges for each edge matrix. The copy starts
// a new generation over g's vertices.
func (g *Graph) clone(cloneEdges func(*matrix.Bool) *matrix.Bool) *Graph {
	c := &Graph{
		n:          g.n,
		edges:      make(map[string]*matrix.Bool, len(g.edges)),
		vlabels:    make(map[string]*matrix.Vector, len(g.vlabels)),
		nedges:     g.nedges,
		gen:        g.gen + 1,
		base:       g.n,
		touched:    g.touched,
		transposed: map[string]*matrix.Bool{},
	}
	for l, m := range g.edges {
		c.edges[l] = cloneEdges(m)
	}
	for l, vec := range g.vlabels {
		c.vlabels[l] = vec.Clone()
	}
	return c
}

// GrewApart reports whether g grew out of prior apart from it: no
// generation since prior's added an edge or a vertex label at a vertex
// that generation began with. Then no edge joins a vertex of prior to
// a new one, in either direction, so every path from a vertex of prior
// stays in prior, and its rows of every CFPQ relation, inverse labels
// included, are the same on both graphs. The mutations record it as
// they go, so the call reads no row. Across several generations it is
// conservative: an entry at a vertex an earlier generation added counts
// as touching, though that vertex is new to prior. g must have grown
// out of prior by clones and additions, as every version of a store
// does.
func GrewApart(prior, g *Graph) bool { return g.touched <= prior.gen }

// touch records an entry added at vertex v: it touches the graph this
// generation grew from when v is one of that graph's vertices.
func (g *Graph) touch(v int) {
	if v < g.base {
		g.touched = g.gen
	}
}

// AddEdge adds a directed edge src -> dst with the given label. Adding
// an edge with an inverse label ("x_r") is rejected: inverse matrices
// are derived, not stored.
func (g *Graph) AddEdge(src int, label string, dst int) {
	if src < 0 || dst < 0 {
		panic(fmt.Sprintf("graph: negative vertex (%d,%d)", src, dst))
	}
	if label == "" {
		panic("graph: empty edge label")
	}
	if grammar.IsInverseLabel(label) {
		panic(fmt.Sprintf("graph: cannot store inverse label %q; add the base edge instead", label))
	}
	if src >= g.n || dst >= g.n {
		g.grow(max(src, dst))
	}
	m := g.edges[label]
	if m == nil {
		m = matrix.NewBool(g.n, g.n)
		g.edges[label] = m
	}
	if !m.Get(src, dst) {
		m.Set(src, dst)
		g.nedges++
		g.touch(min(src, dst))
		g.tmu.Lock()
		delete(g.transposed, grammar.InverseLabel(label))
		g.tmu.Unlock()
	}
}

// HasEdge reports whether edge src -[label]-> dst exists. Inverse labels
// are resolved through the transpose.
func (g *Graph) HasEdge(src int, label string, dst int) bool {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		return false
	}
	if grammar.IsInverseLabel(label) {
		return g.HasEdge(dst, grammar.InverseLabel(label), src)
	}
	m := g.edges[label]
	return m != nil && m.Get(src, dst)
}

// AddVertexLabel attaches a label to vertex v.
func (g *Graph) AddVertexLabel(v int, label string) {
	if v < 0 {
		panic(fmt.Sprintf("graph: negative vertex %d", v))
	}
	if label == "" {
		panic("graph: empty vertex label")
	}
	if v >= g.n {
		g.grow(v)
	}
	vec := g.vlabels[label]
	if vec == nil {
		vec = matrix.NewVector(g.n)
		g.vlabels[label] = vec
	}
	if !vec.Get(v) {
		vec.Set(v)
		g.touch(v)
	}
}

// HasVertexLabel reports whether vertex v carries the label.
func (g *Graph) HasVertexLabel(v int, label string) bool {
	vec := g.vlabels[label]
	return vec != nil && v >= 0 && v < g.n && vec.Get(v)
}

// EdgeMatrix returns the adjacency matrix of the label (E^l in the
// paper). For an inverse label "x_r" it returns the cached transpose of
// x's matrix. The result is shared; callers must not mutate it. Unknown
// labels yield an empty matrix of the right shape.
func (g *Graph) EdgeMatrix(label string) *matrix.Bool {
	if grammar.IsInverseLabel(label) {
		g.tmu.Lock()
		if t := g.transposed[label]; t != nil {
			g.tmu.Unlock()
			return t
		}
		g.tmu.Unlock()
		t := matrix.Transpose(g.EdgeMatrix(grammar.InverseLabel(label)))
		g.tmu.Lock()
		g.transposed[label] = t
		g.tmu.Unlock()
		return t
	}
	if m := g.edges[label]; m != nil {
		return m
	}
	return matrix.NewBool(g.n, g.n)
}

// VertexSet returns the set of vertices carrying the label (V^l as a
// vector). Unknown labels yield the empty set. Shared; do not mutate.
func (g *Graph) VertexSet(label string) *matrix.Vector {
	if vec := g.vlabels[label]; vec != nil {
		return vec
	}
	return matrix.NewVector(g.n)
}

// EdgeLabels returns the sorted set of stored (non-inverse) edge labels.
func (g *Graph) EdgeLabels() []string {
	out := make([]string, 0, len(g.edges))
	for l := range g.edges {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// VertexLabels returns the sorted set of vertex labels.
func (g *Graph) VertexLabels() []string {
	out := make([]string, 0, len(g.vlabels))
	for l := range g.vlabels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeCount returns the number of edges with the given (base) label.
func (g *Graph) EdgeCount(label string) int {
	if m := g.edges[label]; m != nil {
		return m.NVals()
	}
	return 0
}

// Edges calls fn for every labeled edge, grouped by label in sorted
// order. Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(src int, label string, dst int) bool) {
	for _, l := range g.EdgeLabels() {
		stop := false
		g.edges[l].Iterate(func(i, j int) bool {
			if !fn(i, l, j) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Stats summarizes a graph for the paper's Table 1.
type Stats struct {
	Vertices int
	Edges    int
	ByLabel  map[string]int
}

// Stats computes vertex, edge and per-label counts.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: g.n, Edges: g.nedges, ByLabel: map[string]int{}}
	for l, m := range g.edges {
		s.ByLabel[l] = m.NVals()
	}
	return s
}
