package matrix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// panelOperands draws a left matrix of nrows x inner whose rows average
// past the list/bitmap crossover (a few empty), and a right matrix of
// inner x ncols of short list rows with a few long bitmap rows: the
// shape column panels are for.
func panelOperands(rng *rand.Rand, nrows, inner, ncols int) (a, b *Bool) {
	a, b = NewBool(nrows, inner), NewBool(inner, ncols)
	for i := range nrows {
		if rng.Intn(16) == 0 {
			continue
		}
		for _, k := range rng.Perm(inner)[:min(inner, listMax(inner)+1+rng.Intn(inner))] {
			a.Set(i, k)
		}
	}
	for k := range inner {
		n := rng.Intn(5)
		if rng.Intn(10) == 0 {
			n = ncols / 2
		}
		for _, j := range rng.Perm(ncols)[:min(ncols, n)] {
			b.Set(k, j)
		}
	}
	return a, b
}

// iterable is an operand a test reads back entry by entry.
type iterable interface {
	Operand
	Iterate(fn func(i, j int) bool)
}

// toDense returns m's entries as a denseRef.
func toDense(m iterable) *denseRef {
	d := newDense(m.NRows(), m.NCols())
	m.Iterate(func(i, j int) bool {
		d.set(i, j)
		return true
	})
	return d
}

// sameAdded reports whether two products added the same rows in the same
// slots and forms.
func sameAdded(x, y *RowList) bool {
	return slices.Equal(x.ids, y.ids) && slices.EqualFunc(x.rows, y.rows, slices.Equal) &&
		slices.EqualFunc(x.bits, y.bits, slices.Equal) && x.nvals == y.nvals
}

// TestMulAddRowsPanelQuick: a product gathered by column panels is the
// dense reference's (denseRef) — the added rows, the count before the
// mask, t after the fold — and the same added rows, in the same slots
// and forms, on one processor and on two, over left operands of 1 to
// 300 rows (panels of 1, 63, 64 and 65 rows, and panels on both sides
// of a row-block boundary) as a Bool of bitmap rows, a row list of
// bitmaps, or the union of long list rows (SelectRows) and bitmaps,
// whose panels transpose both forms; a right operand as a Bool of list
// and bitmap rows, a row list missing some ids or a Bool widened by
// Resize, whose bitmap rows are shorter than their word count; widths
// that are not whole words, with a's width not t's; t a separate
// matrix, a widened one, a or b; and cut after its first block by a
// cancelled context, when the reference keeps the block's rows alone.
// Panels must be taken with every left form, every row count but 1 (a
// one-row panel never wins by count) and short bitmap rows in b and in
// t, and some cut product must keep rows.
func TestMulAddRowsPanelQuick(t *testing.T) {
	took := map[string]bool{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 63, 64, 65, ctxCheckRows + 1, 300}[rng.Intn(6)]
		inner, ncols, into := 1+rng.Intn(200), 1+rng.Intn(200), rng.Intn(4)
		if into == 1 || into == 2 {
			inner, ncols = n, n
		}
		a0, b0 := panelOperands(rng, n, inner, ncols)
		c0, _ := randomMatrix(rng, n, ncols, rng.Float64()/4)
		if into == 3 {
			c0 = widened(rng, c0)
		}
		left, right := rng.Intn(3), rng.Intn(4)
		if right == 3 {
			b0 = widened(rng, b0)
		}
		lset, mset, bset := allRows(n), rowSet(rng, n), rowSet(rng, inner)
		if rng.Intn(2) == 0 {
			lset = rowSet(rng, n)
		}
		type outcome struct {
			added    *RowList
			st       MulStats
			t        *Bool
			err      error
			want, wt *Bool // the dense reference's added entries and t
			nnz      int   // and its count before the mask
		}
		// run multiplies fresh copies of the operands on procs
		// processors; the reference keeps the rows of l's first cut
		// slots, every row when cut is 0.
		run := func(ctx context.Context, procs, cut int) (o outcome) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, b := a0.Clone(), b0.Clone()
			var l, r iterable = a, b
			switch left {
			case 1: // long list rows beside bitmaps, as a fixpoint's ΔM
				l = Union(SelectRows(a, lset), formsList(a, mset))
			case 2:
				l = formsList(a, lset)
			}
			switch right {
			case 1:
				r = SelectRows(b, bset)
			case 2:
				r = formsList(b, bset)
			}
			o.t = map[int]*Bool{0: c0.Clone(), 1: a, 2: b, 3: c0.Clone()}[into]
			kept := map[int]bool{}
			ids, sl, _ := l.table()
			for x := range sl.rows {
				i := x
				if ids != nil {
					i = int(ids[x])
				}
				kept[i] = cut == 0 || x < cut
			}
			prod := toDense(l).mul(toDense(r))
			o.want, o.wt = NewBool(o.t.nrows, o.t.ncols), o.t.Clone()
			for i := range prod.nrows {
				for j := range prod.ncols {
					if prod.get(i, j) && kept[i] {
						o.nnz++
						if !o.t.Get(i, j) {
							o.want.Set(i, j)
							o.wt.Set(i, j)
						}
					}
				}
			}
			o.added, o.st, o.err = MulAddRows(ctx, o.t, l, r)
			return o
		}
		what := fmt.Sprintf("seed %d: %d rows, %d inner, %d columns, left %d, right %d, into %d", seed, n, inner, ncols, left, right, into)
		// A product emits a list row within the crossover; validateList
		// checks the bitmaps are past it.
		longList := func(r *RowList) bool {
			return slices.ContainsFunc(r.rows, func(row []uint32) bool { return len(row) > listMax(r.ncols) })
		}
		var serial *RowList
		for procs := 1; procs <= 2; procs++ {
			o := run(context.Background(), procs, 0)
			if o.err != nil || validateList(o.added) != nil || longList(o.added) || o.t.validate() != nil {
				t.Errorf("%s, %d procs: %v, %v, long list %v, %v", what, procs, o.err, validateList(o.added), longList(o.added), o.t.validate())
				return false
			}
			if !o.added.toBool().Equal(o.want) || o.st.NNZ != o.nnz || !o.t.Equal(o.wt) {
				t.Errorf("%s, %d procs: added %d (nnz %d), the reference %d (nnz %d)", what, procs, o.added.NVals(), o.st.NNZ, o.want.NVals(), o.nnz)
				return false
			}
			if serial == nil {
				serial = o.added
			} else if !sameAdded(o.added, serial) {
				t.Errorf("%s: two processors added other slots or forms than one", what)
				return false
			}
			if o.st.PanelRows > 0 {
				took[fmt.Sprint("left ", left)] = true
				took[fmt.Sprint(n, " rows")] = true
				took["short b"] = took["short b"] || shortBits(b0)
				took["short t"] = took["short t"] || shortBits(c0)
			}
		}
		if n > ctxCheckRows {
			o := run(newCancelAfter(1), 1, ctxCheckRows)
			cut := errors.Is(o.err, context.Canceled)
			if validateList(o.added) != nil || longList(o.added) || !o.added.toBool().Equal(o.want) || o.st.NNZ != o.nnz || !o.t.Equal(o.wt) {
				t.Errorf("%s: cut after one block (%v), added %d (nnz %d), the reference %d (nnz %d)", what, o.err, o.added.NVals(), o.st.NNZ, o.want.NVals(), o.nnz)
				return false
			}
			took["cut"] = took["cut"] || cut && o.added.NVals() > 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"left 0", "left 1", "left 2", "63 rows", "64 rows", "65 rows", fmt.Sprint(ctxCheckRows+1, " rows"), "300 rows", "short b", "short t", "cut"} {
		if !took[want] {
			t.Errorf("no panel taken with %s", want)
		}
	}
}

// TestMulAddRowsPanelChoice pins which products panels gather, on the
// shapes of BenchmarkMulAddRows (900 columns): every row of ΔS·T (rows
// of 329 entries times rows of 10); of the same product with rows of 31
// entries, one past the crossover, every panel but the last of 40 rows,
// which push gathers cheaper by count; none with rows of 31 times rows
// of 2, cheaper by push; and none of M·ΔT (rows of 10 times bitmaps of
// 327), of an a^n b^n round (rows of one entry), or of rows of 10 with
// one bitmap row of 329 among them: no panel of these passes the
// crossover, so none makes panel scratch. Each call leaves the scratch
// it made all zero.
func TestMulAddRowsPanelChoice(t *testing.T) {
	const n = 900
	rng := rand.New(rand.NewSource(1))
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
	cycle, sparse, oneLong := NewBool(n, n), NewBool(n, n), short.Clone()
	for i := range n {
		cycle.Set(i, (i+1)%n)
		sparse.Set(i, rng.Intn(n))
		sparse.Set(i, rng.Intn(n))
	}
	for _, j := range rng.Perm(n)[:329] {
		oneLong.Set(0, j)
	}
	for _, c := range []struct {
		name  string
		a, b  Operand
		panel int // rows panels gather; -1: none past the crossover
	}{
		{"long-x-short", rows(744, 329), short, 744},
		{"mid-x-short", rows(744, 31), short, 704},
		{"mid-x-sparse", rows(744, 31), sparse, 0},
		{"short-x-long", rows(775, 10), rows(772, 327), -1},
		{"one long row in short ones", oneLong, short, -1},
		{"a^n b^n round", ListRows(cycle), cycle, -1},
	} {
		p := product{t: NewBool(n, n), inner: n}
		p.aIDs, p.a, p.aIn = c.a.table()
		p.bIDs, p.b, p.bIn = c.b.table()
		if p.n = len(p.a.rows); p.aIDs != nil {
			p.n = len(p.aIDs)
		}
		acc := &accumulator{}
		acc.resize(n)
		var st MulStats
		for lo := 0; lo < p.n; lo += ctxCheckRows {
			p.gather(lo, acc, &st)
		}
		if st.PanelRows != max(c.panel, 0) || c.panel < 0 && acc.colw != nil {
			t.Errorf("%s: %d rows gathered by panels, want %d (scratch made: %v)", c.name, st.PanelRows, c.panel, acc.colw != nil)
		}
		nonzero := func(w uint64) bool { return w != 0 }
		if slices.ContainsFunc(acc.colw, nonzero) || slices.ContainsFunc(acc.ct, nonzero) {
			t.Errorf("%s: panel scratch left non-zero", c.name)
		}
	}
}

// TestTranspose64: bit c of word r moves to bit r of word c, and a
// second transpose restores the block.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var blk, orig [64]uint64
	for r := range blk {
		blk[r] = rng.Uint64() & rng.Uint64()
	}
	orig = blk
	transpose64(&blk)
	for r := range 64 {
		for c := range 64 {
			if blk[c]>>r&1 != orig[r]>>c&1 {
				t.Fatalf("bit (%d,%d) did not move to (%d,%d)", r, c, c, r)
			}
		}
	}
	if transpose64(&blk); blk != orig {
		t.Fatal("transposing twice changed the block")
	}
}
