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
// reference (ExtractRows, AddInPlace, ReduceCols, Mul) on random shapes
// from 1x1 up and densities from empty to dense: MulAddRows with either
// operand a Bool or a row list, into a separate t and into a or b
// itself.
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
		if got, want := sel.Cols(), ReduceCols(ra); !got.Equal(want) {
			t.Errorf("Cols = %v, want %v", got, want)
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
				into, _ := randomMatrix(rng, n, p, densities[rng.Intn(4)])
				ok = ok && mulAddAs(t, "MulAddRows "+l.name+" x "+r.name, into, l.op, r.op, Mul(l.ref, r.ref))
			}
		}
		// Aliasing: t is the left or the right operand itself, and the
		// product is taken as the operands stood on entry.
		sq, _ := randomMatrix(rng, m, m, densities[rng.Intn(4)])
		right, _ := randomMatrix(rng, m, m, densities[rng.Intn(4)])
		ok = ok && mulAddAs(t, "MulAddRows into a", sq, sq, right, Mul(sq, right))
		sq, _ = randomMatrix(rng, m, m, densities[rng.Intn(4)])
		set := rowSet(rng, m)
		ok = ok && mulAddAs(t, "MulAddRows into b", sq, SelectRows(sq, set), sq, Mul(ExtractRows(sq, set), sq))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mulAddAs runs MulAddRows(t, a, b) and fails the quick check unless it
// returns prod's entry count and exactly the entries of prod that t
// lacked, and leaves t valid and equal to its old entries plus prod.
// prod must be computed before the call when t aliases an operand.
func mulAddAs(t *testing.T, what string, into *Bool, a, b Operand, prod *Bool) bool {
	t.Helper()
	before := into.Clone()
	added, nnz, err := MulAddRows(context.Background(), into, a, b, nil)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return false
	}
	if nnz != prod.NVals() {
		t.Errorf("%s: product nnz %d, want %d", what, nnz, prod.NVals())
		return false
	}
	if err := into.validate(); err != nil {
		t.Errorf("%s: t invalid: %v", what, err)
		return false
	}
	if want := or(before, prod); !into.Equal(want) {
		t.Errorf("%s: t = %v, want %v", what, into.Pairs(), want.Pairs())
		return false
	}
	return sameAs(t, what+" added", added, Sub(prod, before))
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

// TestMulAddRowsWitness: every entry of the product gets one witness
// k with a[i,k] and b[k,j], whether row k of b is a list or a bitmap.
func TestMulAddRowsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		a, _ := randomMatrix(rng, 10, 8, 0.2)
		b, _ := randomMatrix(rng, 8, 12, 0.2) // rows of 3 or more entries are bitmaps
		into, _ := randomMatrix(rng, 10, 12, 0.1)
		wit := map[uint64]uint32{}
		added, nnz, err := MulAddRows(context.Background(), into, SelectRows(a, rowSet(rng, 10)), b, wit)
		if err != nil {
			t.Fatal(err)
		}
		if len(wit) != nnz {
			t.Fatalf("witness count %d != product nnz %d", len(wit), nnz)
		}
		for key, k := range wit {
			i, j := int(key>>32), int(uint32(key))
			if !a.Get(i, int(k)) || !b.Get(int(k), j) || !into.Get(i, j) {
				t.Fatalf("witness (%d,%d) via %d is not a valid decomposition", i, j, k)
			}
		}
		added.Iterate(func(i, j int) bool {
			if _, ok := wit[Key(i, j)]; !ok {
				t.Fatalf("added entry (%d,%d) has no witness", i, j)
			}
			return true
		})
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// polls-th call on.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestMulAddRowsCancelled: under a cancelled context the kernel returns
// the context's error, whichever form its operands take. Cancelled
// before its first row it adds nothing; cancelled after some rows it
// keeps those rows, folded into t and returned.
func TestMulAddRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewBool(600, 4)
	for i := range 600 {
		a.Set(i, 1)
	}
	b := NewBoolFromPairs(4, 4, [][2]int{{1, 3}, {2, 0}})
	for _, op := range []Operand{a, ListRows(a)} {
		into := NewBool(600, 4)
		if added, _, err := MulAddRows(ctx, into, op, b, nil); !errors.Is(err, context.Canceled) || !added.Empty() || !into.Empty() {
			t.Fatalf("%T: MulAddRows = %v, %v under a cancelled context; t = %v", op, added.Pairs(), err, into.Pairs())
		}
		// One poll passes: rows 0..ctxCheckRows-1 are gathered and kept.
		into = NewBool(600, 4)
		added, nnz, err := MulAddRows(&cancelAfter{context.Background(), 1}, into, op, b, nil)
		want := NewBool(600, 4)
		for i := range ctxCheckRows {
			want.Set(i, 3)
		}
		if !errors.Is(err, context.Canceled) || nnz != ctxCheckRows || !added.toBool().Equal(want) || !into.Equal(want) {
			t.Fatalf("%T: cut after one block: added %d (nnz %d), t %d, err %v", op, added.NVals(), nnz, into.NVals(), err)
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
