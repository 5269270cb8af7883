package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// TestMulAddRowsRoomNeverLeaks: a product gathers its rows in its
// accumulators' pooled rooms and copies them out, so the answer it
// returns owns its tables, each exactly its length, and no later product
// writes into them: not a larger one, nor eight at once, one of them
// past roomKeepMax on every worker. Its bitmap rows, cut from a shared
// chunk, are not written either. A room past roomKeepMax is dropped, not
// pooled, and a pooled room holds no row.
func TestMulAddRowsRoomNeverLeaks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// b's row k holds k+1 columns from 16k, so a product row of rows k
	// and k' is a list or, past listMax(128) = 4, a bitmap.
	b := NewBool(8, 128)
	for k := range 8 {
		for j := range k + 1 {
			b.Set(k, 16*k+j)
		}
	}
	// product multiplies n rows, row i holding i mod 8 and 2i+1 mod 8,
	// by b into an empty t, and checks the result.
	product := func(n int) (*RowList, error) {
		a := NewBool(n, 8)
		for i := range n {
			a.Set(i, i%8)
			a.Set(i, (2*i+1)%8)
		}
		added, st, err := MulAddRows(context.Background(), NewBool(n, 128), a, b)
		if err != nil {
			return nil, err
		}
		if want := Mul(a, b); !added.toBool().Equal(want) || st.NNZ != want.NVals() {
			return nil, fmt.Errorf("%d rows: the answer is not the product (%d entries counted, %d nnz, want %d)", n, added.NVals(), st.NNZ, want.NVals())
		}
		return added, validateList(added)
	}

	kept, err := product(2*ctxCheckRows + 1)
	if err != nil {
		t.Fatal(err)
	}
	if kept.bits == nil || len(kept.rows) == 0 {
		t.Fatal("the kept answer holds no bitmap row")
	}
	ids, rows, bits := slices.Clone(kept.ids), slices.Clone(kept.rows), slices.Clone(kept.bits)
	for k := range rows {
		rows[k], bits[k] = slices.Clone(rows[k]), slices.Clone(bits[k])
	}

	if _, err := product(5*ctxCheckRows + 3); err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 100, ctxCheckRows, 2*ctxCheckRows + 1, 3*ctxCheckRows + 1, 4 * ctxCheckRows, 7*ctxCheckRows + 5,
		2*roomKeepMax + 2} // one worker's room holds at least half
	var wg sync.WaitGroup
	errs := make(chan error, len(sizes))
	for _, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if _, err := product(n); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if !slices.Equal(kept.ids, ids) || !slices.EqualFunc(kept.rows, rows, slices.Equal) || !slices.EqualFunc(kept.bits, bits, slices.Equal) {
		t.Fatal("a later product wrote into the kept answer")
	}
	if cap(kept.ids) != len(kept.ids) || cap(kept.rows) != len(kept.rows) || cap(kept.bits) != len(kept.bits) {
		t.Fatalf("kept answer: tables of capacity %d, %d, %d for %d rows", cap(kept.ids), cap(kept.rows), cap(kept.bits), len(kept.ids))
	}
	for k, b := range kept.bits {
		if cap(b) != len(b) {
			t.Fatalf("kept bitmap row %d: capacity %d past its %d words", k, cap(b), len(b))
		}
	}

	// A room past the keep-max goes back to the pool dropped; one within
	// it goes back empty. What the pool hands out holds neither.
	for _, n := range []int{roomKeepMax + 1, 100} {
		acc := getAccumulator(128)
		for i := range n {
			acc.room.push(uint32(i), []uint32{1}, nil, 1)
		}
		putAccumulator(acc)
	}
	var taken []*accumulator
	for range 8 {
		acc := getAccumulator(128)
		taken = append(taken, acc)
		if cap(acc.room.ids) > roomKeepMax {
			t.Fatalf("a room of %d rows was pooled, past the keep-max %d", cap(acc.room.ids), roomKeepMax)
		}
		if len(acc.room.ids) != 0 || slices.ContainsFunc(acc.room.rows[:cap(acc.room.rows)], func(r []uint32) bool { return r != nil }) {
			t.Fatal("a pooled room holds rows")
		}
	}
	for _, acc := range taken {
		putAccumulator(acc)
	}
}

// TestMulAddRowsInPlaceRows: a product that reads a Bool's rows in place
// (ViewRows) adds the same rows, in the same order and form, with the
// same count, as the product over their copies (SelectRows), and leaves
// the same t. The viewed rows are lists, bitmaps, both, or all empty;
// the view is the left operand or the right one; t is a separate matrix
// or the viewed one itself; a right row list is found through a slot
// table or by search; and the product runs on one processor and on two,
// over one row block or several.
func TestMulAddRowsInPlaceRows(t *testing.T) {
	covered := map[string]bool{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		if rng.Intn(2) == 0 {
			n = ctxCheckRows + 1 + rng.Intn(2*ctxCheckRows)
		}
		form := rng.Intn(4)
		a0 := shapedRows(rng, n, form)
		c0, _ := formsMatrix(rng, n, n)
		set, cset := rowSet(rng, n), rowSet(rng, n)
		viewLeft, rightList, intoViewed := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		procs := 1 + rng.Intn(2)
		type result struct {
			added *RowList
			st    MulStats
			t     *Bool
		}
		// run multiplies fresh copies of the operands, with a0's rows in
		// set read by read.
		run := func(read func(*Bool, *Vector) Operand) result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, c := a0.Clone(), c0.Clone()
			var other Operand = c
			if rightList {
				other = formsList(c, cset)
			}
			l, r := read(a, set), other
			if !viewLeft {
				l, r = other, read(a, set)
			}
			res := result{t: NewBool(n, n)}
			if intoViewed {
				res.t = a
			}
			if viewLeft && rightList {
				covered[fmt.Sprintf("slot table %v", 2*len(r.(*RowList).ids) < l.NVals())] = true
			}
			var err error
			if res.added, res.st, err = MulAddRows(context.Background(), res.t, l, r); err != nil {
				t.Fatal(err)
			}
			return res
		}
		inPlace := run(func(m *Bool, s *Vector) Operand { return ViewRows(m, s) })
		copied := run(func(m *Bool, s *Vector) Operand { return SelectRows(m, s) })
		covered[fmt.Sprintf("form %d, left %v, into viewed %v, procs %d", form, viewLeft, intoViewed, procs)] = true
		what := fmt.Sprintf("seed %d: %d rows, form %d, view left %v, right list %v, into viewed %v, %d procs", seed, n, form, viewLeft, rightList, intoViewed, procs)
		if err := validateList(inPlace.added); err != nil || !slices.Equal(inPlace.added.ids, copied.added.ids) ||
			!slices.EqualFunc(inPlace.added.rows, copied.added.rows, slices.Equal) ||
			!slices.EqualFunc(inPlace.added.bits, copied.added.bits, slices.Equal) || inPlace.st.NNZ != copied.st.NNZ {
			t.Errorf("%s: in place added %d rows (nnz %d, %v), copied %d (nnz %d)", what, len(inPlace.added.ids), inPlace.st.NNZ, err, len(copied.added.ids), copied.st.NNZ)
			return false
		}
		if err := inPlace.t.validate(); err != nil || !inPlace.t.Equal(copied.t) {
			t.Errorf("%s: t differs (%v)", what, err)
			return false
		}
		return true
	}
	// A fixed source, so every case the coverage check below asks for is
	// drawn on every run.
	if err := quick.Check(f, &quick.Config{MaxCount: 160, Rand: rand.New(rand.NewSource(64))}); err != nil {
		t.Fatal(err)
	}
	if !covered["slot table true"] || !covered["slot table false"] {
		t.Errorf("a right row list was not found both with a slot table and without: %v", covered)
	}
	for form := range 4 {
		for _, left := range []bool{false, true} {
			for _, into := range []bool{false, true} {
				for procs := 1; procs <= 2; procs++ {
					if c := fmt.Sprintf("form %d, left %v, into viewed %v, procs %d", form, left, into, procs); !covered[c] {
						t.Errorf("no product ran with %s", c)
					}
				}
			}
		}
	}
}

// shapedRows returns an n×n matrix, n >= 8, whose non-empty rows are
// lists (form 0), bitmaps (1) or either (2), a quarter of them empty;
// form 3 is all empty.
func shapedRows(rng *rand.Rand, n, form int) *Bool {
	m := NewBool(n, n)
	if form == 3 {
		return m
	}
	lm := listMax(n)
	for i := range n {
		if rng.Intn(4) == 0 {
			continue
		}
		k := 1 + rng.Intn(lm) // a list
		if form == 1 || form == 2 && rng.Intn(2) == 0 {
			k = lm + 1 + rng.Intn(n-lm)
		}
		for _, j := range rng.Perm(n)[:k] {
			m.Set(i, j)
		}
	}
	return m
}
