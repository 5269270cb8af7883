package matrix

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// addColsAs fails the quick check unless AddCols, from a mark already
// holding a random part of want, appends each other column of want (the
// columns of r) exactly once and leaves the mark holding all of want.
func addColsAs(t *testing.T, what string, rng *rand.Rand, r *RowList, want *Vector) bool {
	t.Helper()
	pre := NewVectorFromIndices(r.ncols, rng.Perm(r.ncols)[:rng.Intn(r.ncols+1)])
	m := markOf(pre)
	got := m.AddCols(nil, r)
	rest := want.Clone()
	rest.DiffInPlace(pre)
	slices.Sort(got)
	if !slices.Equal(got, rest.Indices()) {
		t.Errorf("%s: AddCols over %v appended %v, want %v", what, pre.Ints(), got, rest.Ints())
		return false
	}
	all := pre.Clone()
	all.UnionInPlace(want)
	if !m.Vector(r.ncols).Equal(all) {
		t.Errorf("%s: AddCols left the mark %v, want %v", what, m.Vector(r.ncols).Ints(), all.Ints())
		return false
	}
	return true
}

// TestMarkQuick checks Add, Has, Remove, AddAll and Vector against a
// map-based set, and Vector.Exchange, which refills a vector from an
// unsorted list and hands back its former array.
func TestMarkQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		pick := func() []uint32 {
			var idx []uint32
			for _, i := range rng.Perm(n)[:rng.Intn(n+1)] {
				idx = append(idx, uint32(i))
			}
			return idx
		}
		m, want := NewMark(n), map[uint32]bool{}
		for range 4 {
			idx := pick()
			var fresh []uint32
			for _, i := range idx {
				if !want[i] {
					fresh = append(fresh, i)
					want[i] = true
				}
			}
			if rng.Intn(2) == 0 {
				if got := m.AddAll(nil, idx); !slices.Equal(got, fresh) {
					return false
				}
			} else {
				for _, i := range idx { // distinct, so i is new exactly when it is in fresh
					if m.Add(i) != slices.Contains(fresh, i) {
						return false
					}
				}
			}
			gone := pick()
			for _, i := range gone[:min(len(gone), rng.Intn(3))] {
				m.Remove(i)
				delete(want, i)
			}
		}
		for i := range uint32(n) {
			if m.Has(i) != want[i] {
				return false
			}
		}
		v := m.Vector(n)
		if v.NVals() != len(want) || !markOf(v).Vector(n).Equal(v) {
			return false
		}
		got := v.Clone()
		list := pick()
		old := got.Exchange(slices.Clone(list))
		return len(old) == 0 && cap(old) >= v.NVals() && got.Equal(NewVectorFromIndices(n, ints(list)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// markOf returns a mark holding v's indices.
func markOf(v *Vector) Mark {
	m := NewMark(v.Size())
	m.AddAll(nil, v.Indices())
	return m
}

func ints(idx []uint32) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = int(i)
	}
	return out
}
