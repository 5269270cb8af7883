package matrix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// toBool is the n-slot matrix a row list represents.
func (r *RowList) toBool() *Bool { return NewBoolFromPairs(r.nrows, r.ncols, r.Pairs()) }

// validateList checks the row-list invariants: ids strictly ascending
// and in range; the list and bitmap tables as long as the ids; each slot
// in exactly one form, a list non-empty, strictly sorted and in range, a
// bitmap ⌈ncols/64⌉ words holding more than a list row may and no
// column past ncols; and nvals their total.
func validateList(r *RowList) error {
	if len(r.ids) != len(r.rows) || r.bits != nil && len(r.bits) != len(r.ids) {
		return fmt.Errorf("%d ids for %d rows and %d bitmaps", len(r.ids), len(r.rows), len(r.bits))
	}
	n := 0
	for k, i := range r.ids {
		if int(i) >= r.nrows || k > 0 && r.ids[k-1] >= i {
			return fmt.Errorf("id %d at %d out of order or range", i, k)
		}
		row := r.rows[k]
		if b := r.bitRow(k); b != nil {
			if row != nil {
				return fmt.Errorf("row %d is both a list and a bitmap", i)
			}
			if len(b) != nwords(r.ncols) {
				return fmt.Errorf("row %d: bitmap of %d words for %d columns", i, len(b), r.ncols)
			}
			if r.ncols%64 != 0 && b[len(b)-1]>>(r.ncols%64) != 0 {
				return fmt.Errorf("row %d: bitmap holds a column past %d", i, r.ncols)
			}
			if c := popcount(b); c <= listMax(r.ncols) {
				return fmt.Errorf("row %d: bitmap of %d entries, within the crossover %d", i, c, listMax(r.ncols))
			}
			n += popcount(b)
			continue
		}
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

// formsList returns copies of the rows of m listed in set, each in the
// form m holds it: a bitmap row of m is a bitmap row of the list.
func formsList(m *Bool, set *Vector) *RowList {
	out := &RowList{nrows: m.nrows, ncols: m.ncols}
	for _, i := range set.idx {
		if b := m.bitRow(int(i)); b != nil {
			out.push(i, nil, slices.Clone(b), popcount(b))
		} else if row := m.rows[i]; len(row) > 0 {
			out.push(i, slices.Clone(row), nil, len(row))
		}
	}
	return out
}

// allRows is the set of every row of an n-row matrix.
func allRows(n int) *Vector {
	v := NewVector(n)
	for i := range n {
		v.Set(i)
	}
	return v
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

// TestRowListFormsQuick checks the row-list reads and set operations
// against a pair set on lists whose rows sit on both sides of the
// list/bitmap crossover, at 40 columns (one word, lists of at most 2)
// and 200 (four words, lists of at most 8): Row, Iterate (stopped inside
// a bitmap row), Pairs and getDst through a Mark (AddCols); Restrict,
// which shares the rows it keeps and changes nothing; and Union, whose
// merged rows take the smaller form, over list ∪ list unions on both
// sides of the crossover, list ∪ bitmap and bitmap ∪ bitmap.
func TestRowListFormsQuick(t *testing.T) {
	var crossed, mixed, bothBits int // merges seen of each kind
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nrows, ncols := 1+rng.Intn(24), []int{40, 200}[rng.Intn(2)]
		am, aref := formsMatrix(rng, nrows, ncols)
		bm, bref := formsMatrix(rng, nrows, ncols)
		aset := rowSet(rng, nrows)
		a, b := formsList(am, aset), formsList(bm, allRows(nrows))
		aref = aref.rows(aset)
		aPairs, bPairs := a.Pairs(), b.Pairs()
		what := fmt.Sprintf("seed %d, %dx%d", seed, nrows, ncols)
		if !sameAs(t, what+" list", a, aref.bool(nrows, ncols)) || !slices.Equal(aPairs, aref.sorted()) {
			return false
		}
		for i := range nrows {
			var want []uint32
			for _, p := range aref.sorted() {
				if p[0] == i {
					want = append(want, uint32(p[1]))
				}
			}
			if got := a.Row(i); !slices.Equal(got, want) {
				t.Errorf("%s: Row(%d) = %v, want %v", what, i, got, want)
				return false
			}
		}
		if !addColsAs(t, what, rng, a, reduceCols(aref.bool(nrows, ncols))) {
			return false
		}
		// Stop Iterate at the middle entry of a bitmap row, or anywhere.
		stop := rng.Intn(len(aPairs) + 1)
		for k, i := range a.ids {
			if b := a.bitRow(k); b != nil {
				stop = slices.Index(aPairs, [2]int{int(i), int(appendBits(nil, b)[popcount(b)/2])})
				break
			}
		}
		var seen [][2]int
		a.Iterate(func(i, j int) bool {
			seen = append(seen, [2]int{i, j})
			return len(seen) <= stop
		})
		if want := aPairs[:min(stop+1, len(aPairs))]; !slices.Equal(seen, want) {
			t.Errorf("%s: Iterate stopped after %d of %d entries, want %d", what, len(seen), len(aPairs), len(want))
			return false
		}

		set := rowSet(rng, nrows)
		r := a.Restrict(set)
		if !sameAs(t, what+" Restrict", r, aref.rows(set).bool(nrows, ncols)) {
			return false
		}
		for k, i := range r.ids {
			x, _ := slices.BinarySearch(a.ids, i)
			if !sameSlot(r, k, a, x) {
				t.Errorf("%s: Restrict copied row %d", what, i)
				return false
			}
		}

		u := Union(a, b)
		if !sameAs(t, what+" Union", u, aref.union(bref).bool(nrows, ncols)) {
			return false
		}
		for k, i := range u.ids {
			x, inA := slices.BinarySearch(a.ids, i)
			y, inB := slices.BinarySearch(b.ids, i)
			var ok bool
			switch {
			case !inB:
				ok = sameSlot(u, k, a, x)
			case !inA:
				ok = sameSlot(u, k, b, y)
			default:
				n := len(u.cols(k, new([]uint32)))
				aBits, bBits := a.bitRow(x) != nil, b.bitRow(y) != nil
				switch {
				case aBits && bBits:
					bothBits++
				case aBits || bBits:
					mixed++
				case n > listMax(ncols):
					crossed++
				}
				ok = (u.bitRow(k) != nil) == (n > listMax(ncols))
			}
			if !ok {
				t.Errorf("%s: Union row %d is not shared or not in the smaller form", what, i)
				return false
			}
		}
		if !slices.Equal(a.Pairs(), aPairs) || !slices.Equal(b.Pairs(), bPairs) || validateList(a) != nil || validateList(b) != nil {
			t.Errorf("%s: Restrict or Union changed an operand", what)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if crossed == 0 || mixed == 0 || bothBits == 0 {
		t.Fatalf("merges seen: %d list ∪ list past the crossover, %d list ∪ bitmap, %d bitmap ∪ bitmap", crossed, mixed, bothBits)
	}
}

// sameSlot reports whether slot k of r shares its row, list or bitmap,
// with slot x of o.
func sameSlot(r *RowList, k int, o *RowList, x int) bool {
	if rb, ob := r.bitRow(k), o.bitRow(x); rb != nil || ob != nil {
		return rb != nil && ob != nil && &rb[0] == &ob[0]
	}
	return &r.rows[k][0] == &o.rows[x][0]
}

// bool is the matrix holding r's entries.
func (r refSet) bool(nrows, ncols int) *Bool { return NewBoolFromPairs(nrows, ncols, r.sorted()) }

// TestRowListKernelsQuick checks every row-list kernel against its n-slot
// reference (ExtractRows, AddInPlace, reduceCols, Mul) on random shapes
// from 1x1 up and densities from empty to dense: MulAddRows with either
// operand a Bool, a row list of list rows or a row list whose long rows
// are bitmaps (at most 30 columns, so every row of more than 2 entries),
// into a separate t and into a or b itself; and with a Bool widened by
// Resize past one word (65 to 200 columns) as b and as t, whose bitmap
// rows are shorter than their word count.
func TestRowListKernelsQuick(t *testing.T) {
	densities := []float64{0, 0.03, 0.2, 0.6}
	short := 0 // products whose b and t both held short bitmap rows
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
		if !addColsAs(t, "SelectRows", rng, sel, reduceCols(ra)) {
			return false
		}
		type operand struct {
			name string
			op   Operand
			ref  *Bool
		}
		lefts := []operand{{"Bool", a, a}, {"RowList", sel, ra}, {"bitmap RowList", formsList(a, s1), ra}}
		for _, l := range lefts {
			for _, r := range []operand{{"Bool", c, c}, {"RowList", SelectRows(c, rowSet(rng, m)), nil}, {"bitmap RowList", formsList(c, rowSet(rng, m)), nil}} {
				if r.ref == nil {
					r.ref = r.op.(*RowList).toBool()
				}
				into, _ := randomMatrix(rng, n, p, densities[rng.Intn(4)])
				ok = ok && mulAddAs(t, "MulAddRows "+l.name+" x "+r.name, into, l.op, r.op, Mul(l.ref, r.ref))
			}
		}
		wide := 65 + rng.Intn(136)
		wc, _ := randomMatrix(rng, m, wide, densities[rng.Intn(4)])
		wc = widened(rng, wc)
		for _, l := range lefts {
			into, _ := randomMatrix(rng, n, wide, densities[rng.Intn(4)])
			into = widened(rng, into)
			if shortBits(wc) && shortBits(into) {
				short++
			}
			ok = ok && mulAddAs(t, "MulAddRows "+l.name+" x widened Bool into widened Bool", into, l.op, wc, Mul(l.ref, wc))
		}
		// Aliasing: t is the left or the right operand itself, and the
		// product is taken as the operands stood on entry.
		sq, _ := randomMatrix(rng, m, m, densities[rng.Intn(4)])
		right, _ := randomMatrix(rng, m, m, densities[rng.Intn(4)])
		ok = ok && mulAddAs(t, "MulAddRows into a", sq, sq, right, Mul(sq, right))
		sq, _ = randomMatrix(rng, m, m, densities[rng.Intn(4)])
		set := rowSet(rng, m)
		ok = ok && mulAddAs(t, "MulAddRows into b", sq, SelectRows(sq, set), sq, Mul(ExtractRows(sq, set), sq))
		sq, _ = randomMatrix(rng, m, m, densities[rng.Intn(4)])
		ok = ok && mulAddAs(t, "MulAddRows into a, bitmap RowList b", sq, sq, formsList(sq, set), Mul(sq, ExtractRows(sq, set)))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if short == 0 {
		t.Fatal("no product read a widened b into a widened t")
	}
}

// widened returns a matrix of m's shape holding m's entries in its
// first rows and words: they are set in a narrower matrix, which Resize
// then widens, as NewIndexWarm widens a relation. When m is more than
// one word wide, its bitmap rows are shorter than ⌈ncols/64⌉ words.
func widened(rng *rand.Rand, m *Bool) *Bool {
	nrows, ncols := m.nrows-rng.Intn(m.nrows/2+1), m.ncols
	if w := nwords(m.ncols); w > 1 {
		ncols = 64 * (1 + rng.Intn(w-1))
	}
	out := NewBool(nrows, ncols)
	m.Iterate(func(i, j int) bool {
		if i < nrows && j < ncols {
			out.Set(i, j)
		}
		return true
	})
	out.Resize(m.nrows, m.ncols)
	return out
}

// shortBits reports whether m holds a bitmap row shorter than
// ⌈ncols/64⌉ words.
func shortBits(m *Bool) bool {
	for i := range m.rows {
		if b := m.bitRow(i); b != nil && len(b) < nwords(m.ncols) {
			return true
		}
	}
	return false
}

// mulAddAs runs MulAddRows(t, a, b) and fails the quick check unless it
// returns prod's entry count and exactly the entries of prod that t
// lacked, and leaves t valid and equal to its old entries plus prod.
// prod must be computed before the call when t aliases an operand.
func mulAddAs(t *testing.T, what string, into *Bool, a, b Operand, prod *Bool) bool {
	t.Helper()
	before := into.Clone()
	added, st, err := MulAddRows(context.Background(), into, a, b)
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return false
	}
	if st.NNZ != prod.NVals() {
		t.Errorf("%s: product nnz %d, want %d", what, st.NNZ, prod.NVals())
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

// TestRowListNil pins what a nil *RowList answers: it is empty to
// NVals, Empty, Iterate and Pairs.
func TestRowListNil(t *testing.T) {
	var r *RowList
	r.Iterate(func(i, j int) bool {
		t.Fatalf("nil list iterated (%d,%d)", i, j)
		return false
	})
	if r.NVals() != 0 || !r.Empty() || len(r.Pairs()) != 0 {
		t.Fatalf("nil list: NVals %d, Empty %v, Pairs %v", r.NVals(), r.Empty(), r.Pairs())
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

// cancelAfter is a context whose Err reports cancellation from its
// polls-th call on. Helpers poll it concurrently.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
}

func newCancelAfter(polls int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.polls.Store(int64(polls))
	return c
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMulAddRowsCancelled: under a cancelled context the kernel returns
// the context's error, whichever form its operands take. Cancelled
// before its first row it adds nothing; cancelled after some polls it
// keeps the blocks those polls claimed, whole, folded into t and
// returned. On one processor they are the first blocks; with helpers
// they are as many blocks, whichever were claimed first.
func TestMulAddRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const nrows = 2*ctxCheckRows + 88
	a := NewBool(nrows, 4)
	for i := range nrows {
		a.Set(i, 1)
	}
	b := NewBoolFromPairs(4, 4, [][2]int{{1, 3}, {2, 0}})
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, op := range []Operand{a, ListRows(a)} {
			into := NewBool(nrows, 4)
			if added, _, err := MulAddRows(ctx, into, op, b); !errors.Is(err, context.Canceled) || !added.Empty() || !into.Empty() {
				t.Fatalf("%d procs, %T: MulAddRows = %v, %v under a cancelled context; t = %v", procs, op, added.Pairs(), err, into.Pairs())
			}
			for polls := 1; polls <= 2; polls++ {
				into = NewBool(nrows, 4)
				added, st, err := MulAddRows(newCancelAfter(polls), into, op, b)
				if !errors.Is(err, context.Canceled) || st.NNZ != added.NVals() || !added.toBool().Equal(into) || validateList(added) != nil {
					t.Fatalf("%d procs, %T: cut after %d polls: added %d (nnz %d), t %d, err %v", procs, op, polls, added.NVals(), st.NNZ, into.NVals(), err)
				}
				// Every kept row is a true product row, and the kept rows
				// are polls whole blocks.
				kept := map[int]int{}
				added.Iterate(func(i, j int) bool {
					if j != 3 {
						t.Fatalf("%d procs, %T: kept (%d,%d), not a product entry", procs, op, i, j)
					}
					kept[i/ctxCheckRows]++
					return true
				})
				if len(kept) != polls {
					t.Fatalf("%d procs, %T: %d polls kept blocks %v", procs, op, polls, kept)
				}
				for x, n := range kept {
					if n != min(ctxCheckRows, nrows-x*ctxCheckRows) || procs == 1 && x >= polls {
						t.Fatalf("%d procs, %T: %d polls kept blocks %v", procs, op, polls, kept)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestMulAddRowsParallelQuick: gathered on four processors, the kernel
// returns the same rows in the same order, the same count and the same
// t as on one, on operands of one to four row blocks in every left and right form
// (a right row list of list rows, or one that keeps b's bitmap rows),
// with t a separate matrix or one of the operands.
func TestMulAddRowsParallelQuick(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1 + rng.Intn(3*ctxCheckRows+1), ctxCheckRows, ctxCheckRows + 1, 2*ctxCheckRows + 1, 3*ctxCheckRows + 1}[rng.Intn(5)]
		a0, _ := formsMatrix(rng, n, n)
		b0, _ := formsMatrix(rng, n, n)
		c0, _ := formsMatrix(rng, n, n)
		set, bset := rowSet(rng, n), rowSet(rng, n)
		left, right, into := rng.Intn(3), rng.Intn(3), rng.Intn(3)
		type result struct {
			added *RowList
			st    MulStats
			t     *Bool
		}
		// run multiplies fresh copies of the operands on procs processors.
		run := func(procs int) result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, b := a0.Clone(), b0.Clone()
			var l, r Operand = a, b
			switch left {
			case 1:
				l = SelectRows(a, set)
			case 2:
				l = ListRows(a)
			}
			switch right {
			case 1:
				r = SelectRows(b, bset)
			case 2:
				r = formsList(b, bset)
			}
			res := result{t: c0.Clone()}
			switch into {
			case 1:
				res.t = a
			case 2:
				res.t = b
			}
			var err error
			if res.added, res.st, err = MulAddRows(context.Background(), res.t, l, r); err != nil {
				t.Fatal(err)
			}
			return res
		}
		one, four := run(1), run(4)
		what := fmt.Sprintf("seed %d, %d rows, left form %d, right form %d, into %d", seed, n, left, right, into)
		if one.st.HelperBlocks != 0 || n <= ctxCheckRows && four.st.HelperBlocks != 0 {
			t.Errorf("%s: helpers gathered %d and %d blocks", what, one.st.HelperBlocks, four.st.HelperBlocks)
			return false
		}
		if err := validateList(four.added); err != nil || !slices.Equal(one.added.ids, four.added.ids) ||
			!slices.EqualFunc(one.added.rows, four.added.rows, slices.Equal) ||
			!slices.EqualFunc(one.added.bits, four.added.bits, slices.Equal) || one.st.NNZ != four.st.NNZ || one.st.PanelRows != four.st.PanelRows {
			t.Errorf("%s: parallel added %d rows (nnz %d, %v), serial %d (nnz %d)", what, len(four.added.ids), four.st.NNZ, err, len(one.added.ids), one.st.NNZ)
			return false
		}
		if err := four.t.validate(); err != nil || !four.t.Equal(one.t) {
			t.Errorf("%s: parallel t differs from serial t (%v)", what, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMulAddRowsJoinsMixedBlocks: a product whose row blocks differ in
// form — the first and last add only list rows, the middle one only
// bitmap rows — joins to a valid list with one bitmap slot per row, nil
// for the list rows, equal to what one goroutine gathers.
func TestMulAddRowsJoinsMixedBlocks(t *testing.T) {
	const n = 2*ctxCheckRows + 1
	b := NewBool(n, n)
	b.Set(0, 0)
	for j := range n {
		b.Set(1, j)
	}
	a := NewBool(n, n)
	for i := range n {
		a.Set(i, i/ctxCheckRows%2) // block 1 reads b's full row 1
	}
	var serial *RowList
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		added, _, err := MulAddRows(context.Background(), NewBool(n, n), a, b)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateList(added); err != nil {
			t.Fatalf("%d procs: %v", procs, err)
		}
		if added.bits == nil || added.bitRow(0) != nil || added.bitRow(ctxCheckRows) == nil || added.bitRow(n-1) != nil {
			t.Fatalf("%d procs: rows 0, %d and %d not list, bitmap, list", procs, ctxCheckRows, n-1)
		}
		if serial == nil {
			serial = added
		} else if !slices.Equal(serial.Pairs(), added.Pairs()) {
			t.Fatalf("parallel join differs from the serial gather")
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

// BenchmarkMulAddRows times one kernel call on each of the two product
// shapes that do most of the dense-cold query's work (the first
// chunk-100 query of go-hierarchy@0.02/G2, 900 vertices), drawn at
// random with the row counts and lengths of that query's largest calls,
// and on a third at the edge of the panel choice:
//
//   - short-x-long is M·ΔT: 775 left rows of 10 entries (rows of
//     T#subClassOf_r) times a row list of 772 rows of 327 entries
//     (ΔT^{S#0}), bitmaps, each ORed a word at a time; its rows are
//     within the crossover, so it is gathered by push;
//   - long-x-short is ΔS·T: 744 left rows of 329 entries, bitmaps,
//     times a Bool of 900 rows of 10 entries (T#subClassOf), which
//     column panels gather, each row of the Bool read once a panel;
//   - mid-x-short is the same product with left rows of 31 entries,
//     one past the crossover at 900 columns, the least a panel is
//     tried on: panels gather every row but the last panel's 40, which
//     push gathers cheaper by count;
//   - inplace-x-long is M·ΔT as the driver forms it: the rows of a Bool
//     of 900 rows of 10 entries read in place (ViewRows) through an
//     active set of 775, times a row list like short-x-long's. Its
//     operands are drawn after the others', which stay as they were.
//
// t starts empty on every call, so the call folds its whole product.
// The shapes span several row blocks, so they gather on every
// processor; run at -cpu 1,2.
func BenchmarkMulAddRows(b *testing.B) {
	const n = 900
	rng := rand.New(rand.NewSource(1))
	// rows returns live rows of n columns, k entries each, in the form
	// a product leaves them: bitmaps past the crossover.
	rows := func(live, k int) *RowList {
		m := NewBool(n, n)
		for _, i := range rng.Perm(n)[:live] {
			for _, j := range rng.Perm(n)[:k] {
				m.Set(i, j)
			}
		}
		return formsList(m, allRows(n))
	}
	short := NewBool(n, n)
	for i := range n {
		for _, j := range rng.Perm(n)[:10] {
			short.Set(i, j)
		}
	}
	for _, bc := range []struct {
		name string
		a, b Operand
	}{
		{"short-x-long", rows(775, 10), rows(772, 327)},
		{"long-x-short", rows(744, 329), short},
		{"mid-x-short", rows(744, 31), short},
		{"inplace-x-long", ViewRows(short, NewVectorFromIndices(n, rng.Perm(n)[:775])), rows(772, 327)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var st MulStats
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				t := NewBool(n, n)
				b.StartTimer()
				_, st, _ = MulAddRows(context.Background(), t, bc.a, bc.b)
			}
			b.ReportMetric(float64(st.NNZ), "nnz/op")
		})
	}
}

// TestMulAddRowsSlotTables: a product whose right operand is a row list
// of few rows against many entries of a finds b's rows through a pooled
// slot table, which consecutive and concurrent products share. Each
// product here, of three row blocks gathered with helpers, must equal
// the reference product, over right
// operands that hold different rows of b: a table that kept a previous
// operand's entries would send a lookup to a wrong row or past the end.
func TestMulAddRowsSlotTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 2*ctxCheckRows + 1
	rng := rand.New(rand.NewSource(61))
	a, _ := formsMatrix(rng, n, n)
	b, _ := formsMatrix(rng, n, n)
	var rights []*RowList
	for step := 2; step <= 5; step++ {
		set := NewVector(n)
		for k := rng.Intn(step); k < n; k += step {
			set.Set(k)
		}
		r := formsList(b, set)
		if 2*len(r.ids) >= a.NVals() {
			t.Fatalf("%d rows of b against %d entries of a: the product builds no slot table", len(r.ids), a.NVals())
		}
		rights = append(rights, r)
	}
	check := func(r *RowList) error {
		want := Mul(a, r.toBool())
		into := NewBool(n, n)
		added, st, err := MulAddRows(context.Background(), into, a, r)
		if err != nil {
			return err
		}
		if !added.toBool().Equal(want) || !into.Equal(want) || st.NNZ != want.NVals() {
			return fmt.Errorf("%d rows of b: product of %d entries, want %d", len(r.ids), added.NVals(), want.NVals())
		}
		return nil
	}
	for range 2 {
		for _, r := range rights {
			if err := check(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(rights))
	for _, r := range rights {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					if err := check(r); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
