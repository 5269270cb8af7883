package matrix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// toBool is the n-slot matrix a row list represents.
func (r *RowList) toBool() *Bool { return NewBoolFromPairs(r.nrows, r.ncols, r.Pairs()) }

// validateList checks the row-list invariants: ids strictly ascending
// and in range, rows non-empty, strictly sorted and in range, and nvals
// their total.
func validateList(r *RowList) error {
	if len(r.ids) != len(r.rows) {
		return fmt.Errorf("%d ids for %d rows", len(r.ids), len(r.rows))
	}
	n := 0
	for k, i := range r.ids {
		if int(i) >= r.nrows || k > 0 && r.ids[k-1] >= i {
			return fmt.Errorf("id %d at %d out of order or range", i, k)
		}
		row := r.rows[k]
		if len(row) == 0 {
			return fmt.Errorf("row %d is listed but empty", i)
		}
		for x, c := range row {
			if int(c) >= r.ncols || x > 0 && row[x-1] >= c {
				return fmt.Errorf("row %d: column %d at %d out of order or range", i, c, x)
			}
		}
		n += len(row)
	}
	if n != r.nvals {
		return fmt.Errorf("nvals %d, rows hold %d", r.nvals, n)
	}
	return nil
}

// sameAs fails the quick check when r is malformed or differs from want.
func sameAs(t *testing.T, what string, r *RowList, want *Bool) bool {
	t.Helper()
	if err := validateList(r); err != nil {
		t.Errorf("%s: %v", what, err)
		return false
	}
	if got := r.toBool(); !got.Equal(want) {
		t.Errorf("%s:\ngot  %v\nwant %v", what, got.Pairs(), want.Pairs())
		return false
	}
	return true
}

// rowSet draws a row set of size n: empty, the last row alone, one
// random row, or a random subset.
func rowSet(rng *rand.Rand, n int) *Vector {
	switch rng.Intn(4) {
	case 0:
		return NewVector(n)
	case 1:
		return NewVectorFromIndices(n, []int{n - 1})
	case 2:
		return NewVectorFromIndices(n, []int{rng.Intn(n)})
	}
	return NewVectorFromIndices(n, rng.Perm(n)[:rng.Intn(n+1)])
}

// TestRowListKernelsQuick checks every row-list kernel against its n-slot
// reference (ExtractRows, Sub, AddInPlace, ReduceCols, Mul) on random
// shapes from 1x1 up and densities from empty to dense.
func TestRowListKernelsQuick(t *testing.T) {
	densities := []float64{0, 0.03, 0.2, 0.6}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a, _ := randomMatrix(rng, n, m, densities[rng.Intn(4)])
		b, _ := randomMatrix(rng, n, m, densities[rng.Intn(4)])
		c, _ := randomMatrix(rng, m, p, densities[rng.Intn(4)])
		s1, s2 := rowSet(rng, n), rowSet(rng, n)
		ra, rb := ExtractRows(a, s1), ExtractRows(b, s2)

		sel := SelectRows(a, s1)
		ok := sameAs(t, "SelectRows", sel, ra) && sameAs(t, "ListRows", ListRows(a), a)
		ok = ok && sameAs(t, "Restrict", ListRows(b).Restrict(s2), rb) &&
			sameAs(t, "Restrict of a selection", sel.Restrict(s2), ExtractRows(ra, s2))
		ok = ok && sameAs(t, "Union", Union(sel, SelectRows(b, s2)), or(ra, rb))
		diff := SelectRows(a, s1)
		diff.DiffInPlace(b)
		ok = ok && sameAs(t, "DiffInPlace", diff, Sub(ra, b))
		if got, want := sel.Cols(), ReduceCols(ra); !got.Equal(want) {
			t.Errorf("Cols = %v, want %v", got, want)
			return false
		}
		sum, want := b.Clone(), or(b, ra)
		if changed := AddListInPlace(sum, sel); changed != (want.NVals() > b.NVals()) || !sum.Equal(want) {
			t.Errorf("AddListInPlace changed=%v: %v, want %v", changed, sum.Pairs(), want.Pairs())
			return false
		}
		for _, l := range []struct {
			name string
			op   Operand
			ref  *Bool
		}{{"Bool", a, a}, {"RowList", sel, ra}} {
			for _, r := range []struct {
				name string
				op   Operand
				ref  *Bool
			}{{"Bool", c, c}, {"RowList", SelectRows(c, rowSet(rng, m)), nil}} {
				if r.ref == nil {
					r.ref = r.op.(*RowList).toBool()
				}
				prod, err := MulRows(context.Background(), l.op, r.op, nil)
				if err != nil {
					t.Error(err)
					return false
				}
				ok = ok && sameAs(t, "MulRows "+l.name+" x "+r.name, prod, Mul(l.ref, r.ref))
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectRowsCopies pins the copy rule: growing a selected row of the
// matrix in place (Bool.Set into spare capacity) does not reach the
// list.
func TestSelectRowsCopies(t *testing.T) {
	a := NewBool(3, 8)
	a.rows[1] = make([]uint32, 0, 8)
	a.Set(1, 2)
	a.Set(1, 6)
	sel := SelectRows(a, NewVectorFromIndices(3, []int{1}))
	a.Set(1, 0)
	if got := sel.Row(1); len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("selected row changed with the matrix: %v", got)
	}
}

// TestRowListDiffInPlace: removing T's entries drops the rows it empties
// and keeps the others, and subtracting nothing changes nothing.
func TestRowListDiffInPlace(t *testing.T) {
	r := ListRows(NewBoolFromPairs(3, 3, [][2]int{{0, 0}, {0, 1}, {2, 2}}))
	r.DiffInPlace(NewBool(3, 3))
	if r.NVals() != 3 {
		t.Fatalf("subtracting empty removed entries: %v", r.Pairs())
	}
	r.DiffInPlace(NewBoolFromPairs(3, 3, [][2]int{{0, 1}, {1, 1}, {2, 2}}))
	if err := validateList(r); err != nil || r.NVals() != 1 || len(r.Row(0)) != 1 || r.Row(2) != nil {
		t.Fatalf("DiffInPlace = %v (%v)", r.Pairs(), err)
	}
}

func TestMulRowsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		a, _ := randomMatrix(rng, 10, 8, 0.2)
		b, _ := randomMatrix(rng, 8, 12, 0.2)
		wit := map[uint64]uint32{}
		prod, err := MulRows(context.Background(), SelectRows(a, rowSet(rng, 10)), b, wit)
		if err != nil {
			t.Fatal(err)
		}
		if len(wit) != prod.NVals() {
			t.Fatalf("witness count %d != nvals %d", len(wit), prod.NVals())
		}
		for key, k := range wit {
			i, j := UnKey(key)
			if !a.Get(i, int(k)) || !b.Get(int(k), j) || len(prod.Row(i)) == 0 {
				t.Fatalf("witness (%d,%d) via %d is not a valid decomposition", i, j, k)
			}
		}
	}
}

// TestMulRowsCancelled: a product under a cancelled context returns the
// context's error and no product, whichever form its operands take.
func TestMulRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewBoolFromPairs(600, 4, [][2]int{{0, 1}, {599, 2}})
	b := NewBoolFromPairs(4, 4, [][2]int{{1, 3}, {2, 0}})
	for _, op := range []Operand{a, ListRows(a)} {
		if prod, err := MulRows(ctx, op, b, nil); !errors.Is(err, context.Canceled) || prod != nil {
			t.Fatalf("%T: MulRows = %v, %v under a cancelled context", op, prod, err)
		}
	}
}

// TestVectorSetOpsQuick checks UnionInPlace and DiffInPlace against a
// map-based set, over sides of very different sizes.
func TestVectorSetOpsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		pick := func() []int { return rng.Perm(n)[:rng.Intn(n+1)>>uint(rng.Intn(6))] }
		v, o := NewVectorFromIndices(n, pick()), NewVectorFromIndices(n, pick())
		want := map[int]bool{}
		for _, i := range v.Ints() {
			want[i] = true
		}
		union := rng.Intn(2) == 0
		before := len(want)
		for _, i := range o.Ints() {
			if union {
				want[i] = true
			} else {
				delete(want, i)
			}
		}
		var changed bool
		if union {
			changed = v.UnionInPlace(o)
		} else {
			changed = v.DiffInPlace(o)
		}
		if changed != (len(want) != before) || v.NVals() != len(want) {
			return false
		}
		for k, i := range v.Ints() {
			if !want[i] || k > 0 && v.idx[k-1] >= v.idx[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorUnionOwnsItsArray: UnionInPlace writes into the spare
// capacity of the vector's own array, and no other Vector — a clone, or
// the one unioned in — shares that array.
func TestVectorUnionOwnsItsArray(t *testing.T) {
	v := NewVector(64)
	o := NewVectorFromIndices(64, []int{3, 9})
	v.UnionInPlace(o) // v grows from nothing: it must copy o, not adopt its array
	clone := v.Clone()
	for i := 0; i < 64; i += 5 {
		v.UnionInPlace(NewVectorFromIndices(64, []int{i}))
	}
	if !o.Equal(NewVectorFromIndices(64, []int{3, 9})) {
		t.Fatalf("union changed its argument: %v", o)
	}
	if !clone.Equal(NewVectorFromIndices(64, []int{3, 9})) {
		t.Fatalf("growing a vector changed its clone: %v", clone)
	}
	if v.NVals() != 15 {
		t.Fatalf("v = %v", v)
	}
}
