package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
)

func seedGraph() *graph.Graph {
	g := graph.New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 0)
	return g
}

func TestStoreVersionsAndIsolation(t *testing.T) {
	st := New(seedGraph())
	v0 := st.Pin()
	if v0.Version() != 0 {
		t.Fatalf("initial version = %d", v0.Version())
	}

	v1, err := st.Update(func(tx *Tx) error {
		tx.Graph().AddEdge(2, "a", 3)
		tx.SetProp(3, "name", cypher.Value{Str: "three"})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version() != 1 || st.Version() != 1 {
		t.Fatalf("version after update = %d / %d", v1.Version(), st.Version())
	}

	// The pinned old snapshot is untouched: no new edge, no grown
	// vertex set, no property.
	if v0.Graph().HasEdge(2, "a", 3) || v0.Graph().NumVertices() != 3 {
		t.Fatalf("update leaked into pinned snapshot")
	}
	if v0.PropEquals(3, "name", cypher.Value{Str: "three"}) {
		t.Fatalf("property leaked into pinned snapshot")
	}
	if !v1.Graph().HasEdge(2, "a", 3) || !v1.PropEquals(3, "name", cypher.Value{Str: "three"}) {
		t.Fatalf("update missing from new snapshot")
	}

	// Property overwrite COWs the inner map.
	if _, err := st.Update(func(tx *Tx) error {
		tx.SetProp(3, "name", cypher.Value{Str: "iii"})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !v1.PropEquals(3, "name", cypher.Value{Str: "three"}) {
		t.Fatalf("property overwrite leaked into prior snapshot")
	}
	if !st.Pin().PropEquals(3, "name", cypher.Value{Str: "iii"}) {
		t.Fatalf("property overwrite missing from new snapshot")
	}
}

func TestStoreUpdatePublishesPartialStateOnError(t *testing.T) {
	st := New(seedGraph())
	boom := fmt.Errorf("boom")
	snap, err := st.Update(func(tx *Tx) error {
		tx.Graph().AddEdge(0, "c", 1)
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	// Journal-replay semantics: the acknowledged partial state is the
	// published state.
	if snap.Version() != 1 || !st.Pin().Graph().HasEdge(0, "c", 1) {
		t.Fatalf("partial state not published")
	}
}

func TestStoreIDsUniqueAcrossIncarnations(t *testing.T) {
	a, b := New(seedGraph()), New(seedGraph())
	if a.ID() == b.ID() {
		t.Fatalf("two store incarnations share id %d", a.ID())
	}
	if a.Pin().StoreID() != a.ID() {
		t.Fatalf("snapshot store id mismatch")
	}
}

// TestStoreConcurrentPinUpdate hammers Pin/Update from many
// goroutines: versions must be monotonic per reader and every pinned
// snapshot internally consistent (edge count == base + version, since
// each update adds exactly one edge). Run under -race this also proves
// the lock-free read path is data-race clean.
func TestStoreConcurrentPinUpdate(t *testing.T) {
	st := New(seedGraph())
	base := st.Pin().Graph().NumEdges()

	const writers, writesPer, readers = 4, 50, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				if _, err := st.Update(func(tx *Tx) error {
					v := tx.Graph().NumVertices()
					tx.Graph().AddEdge(v-1, "a", v)
					return nil
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for i := 0; i < 200; i++ {
				snap := st.Pin()
				v := snap.Version()
				if v < last {
					t.Errorf("reader %d: version went backwards %d -> %d", r, last, v)
					return
				}
				last = v
				if got, want := snap.Graph().NumEdges(), base+int(v); got != want {
					t.Errorf("reader %d: version %d has %d edges, want %d (torn read)", r, v, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := st.Version(), uint64(writers*writesPer); got != want {
		t.Fatalf("final version = %d, want %d", got, want)
	}
}

// TestGrewApartAgreesWithStamp: over random lineages of Update writes,
// graph.GrewApart between any two versions answers as the store's
// Touched stamp does: version j grew apart from version i < j exactly
// when no write after i touched a vertex that existed before it. Among
// the writes is an edge on a vertex an earlier apart write created,
// which is new to every version before that write but still counts.
func TestGrewApartAgreesWithStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b"}
	label := func() string { return labels[rng.Intn(len(labels))] }
	seen := map[bool]int{}
	for trial := 0; trial < 60; trial++ {
		st := New(seedGraph())
		n0 := st.Pin().Graph().NumVertices()
		snaps := []*Snapshot{st.Pin()}
		for w := 0; w < 10; w++ {
			_, err := st.Update(func(tx *Tx) error {
				g := tx.Graph()
				n := g.NumVertices()
				old := func() int { return rng.Intn(n) }
				switch rng.Intn(8) {
				case 0: // CREATE-shaped: new vertices, linked and labeled among themselves
					g.AddEdge(n, label(), n+1)
					g.AddVertexLabel(n+1, "N")
					if rng.Intn(2) == 0 {
						g.AddEdge(n+2, label(), n)
					}
				case 1: // old to new
					g.AddEdge(old(), label(), n)
				case 2: // new to old
					g.AddEdge(n, label(), old())
				case 3: // old to old
					g.AddEdge(old(), label(), old())
				case 4: // a label on an old vertex
					g.AddVertexLabel(old(), "M")
				case 5: // properties only
					tx.SetProp(old(), "k", cypher.Value{Int: int64(w), IsInt: true})
				case 6: // an edge and a label that are already there
					g.Edges(func(src int, l string, dst int) bool {
						g.AddEdge(src, l, dst)
						return rng.Intn(3) != 0
					})
					for _, v := range g.VertexSet("N").Ints() {
						g.AddVertexLabel(v, "N")
					}
				case 7: // an edge on a vertex an earlier write created only
					if n > n0 {
						v := n0 + rng.Intn(n-n0)
						g.AddEdge(v, label(), v)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, st.Pin())
		}
		for j, sj := range snaps {
			for _, si := range snaps[:j] {
				want := sj.Touched() <= si.Version()
				seen[want]++
				if got := graph.GrewApart(si.Graph(), sj.Graph()); got != want {
					t.Fatalf("trial %d: GrewApart(v%d, v%d) = %v, but Touched(v%d) = %d", trial, si.Version(), sj.Version(), got, sj.Version(), sj.Touched())
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("lineages exercised only one verdict: %v", seen)
	}
}
