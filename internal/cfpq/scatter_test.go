package cfpq

import (
	"reflect"
	"testing"
	"testing/quick"

	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// scatter row-filters union-run pairs down to one member's source set.
// Pairs() is row-major sorted, so filtering preserves the solo run's
// exact ordering.
func scatter(pairs [][2]int, src *matrix.Vector) [][2]int {
	out := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		if src.Get(p[0]) {
			out = append(out, p)
		}
	}
	return out
}

// Property (testing/quick): running MultiSource once over the union of
// several source sets and scattering the answer per member is
// byte-identical to running each member solo: a source-restricted
// answer depends only on its own sources, whatever else the run
// processed. Member sets are built to overlap, one member duplicates
// another exactly, and one member is empty.
func TestMultiSourceScatterQuick(t *testing.T) {
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	f := func(edges []uint16, seeds []uint8) bool {
		const n = 20
		g := quickGraph(n, edges)

		// Three overlapping member sets drawn from one seed pool, plus
		// an exact duplicate of member 0 and an empty set.
		members := make([]*matrix.Vector, 5)
		for i := range members {
			members[i] = matrix.NewVector(n)
		}
		for i, s := range seeds {
			v := int(s) % n
			members[i%3].Set(v)
			if i%2 == 0 {
				members[(i+1)%3].Set(v) // force overlap between sets
			}
		}
		for _, v := range members[0].Ints() {
			members[3].Set(v) // duplicate of member 0
		}
		// members[4] stays empty.

		union := matrix.NewVector(n)
		for _, m := range members {
			for _, v := range m.Ints() {
				union.Set(v)
			}
		}

		shared, err := MultiSource(g, w, union)
		if err != nil {
			return false
		}
		unionPairs := shared.Answer().Pairs()
		for _, m := range members {
			solo, err := MultiSource(g, w, m)
			if err != nil {
				return false
			}
			got := scatter(unionPairs, m)
			want := solo.Answer().Pairs()
			if len(got) != len(want) {
				return false
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The scatter property holds for every source-restricted engine, not
// just the default one.
func TestScatterAcrossEngines(t *testing.T) {
	w := grammar.MustWCNF(grammar.Dyck1("a", "b"))
	g := quickGraph(16, []uint16{
		0x0001, 0x0102, 0x0203, 0x0304, 0x0400, 0x0506,
		0x0607, 0x0705, 0x0008, 0x0809, 0x0900, 0x0a0b,
	})
	members := []*matrix.Vector{
		matrix.NewVectorFromIndices(16, []int{0, 1, 2}),
		matrix.NewVectorFromIndices(16, []int{2, 3, 5}), // overlaps with member 0
		matrix.NewVectorFromIndices(16, []int{0, 1, 2}), // duplicate of member 0
		matrix.NewVector(16),                            // empty
	}
	union := matrix.NewVectorFromIndices(16, []int{0, 1, 2, 3, 5})

	engines := []struct {
		name string
		run  func(src *matrix.Vector) ([][2]int, error)
	}{
		{"multisource", func(src *matrix.Vector) ([][2]int, error) {
			r, err := MultiSource(g, w, src)
			if err != nil {
				return nil, err
			}
			return r.Answer().Pairs(), nil
		}},
		{"allpairs-restricted", func(src *matrix.Vector) ([][2]int, error) {
			r, err := AllPairs(g, w)
			if err != nil {
				return nil, err
			}
			return r.PairsFrom(src), nil
		}},
		{"singlepath-ms", func(src *matrix.Vector) ([][2]int, error) {
			r, err := MultiSourceSinglePath(g, w, src)
			if err != nil {
				return nil, err
			}
			return r.Answer().Pairs(), nil
		}},
	}
	for _, e := range engines {
		name, run := e.name, e.run
		unionPairs, err := run(union)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range members {
			want, err := run(m)
			if err != nil {
				t.Fatalf("%s member %d: %v", name, i, err)
			}
			got := scatter(unionPairs, m)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s member %d: scattered %v != solo %v", name, i, got, want)
			}
		}
	}
}
