package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refSet is the reference a Bool is checked against: its true entries.
type refSet map[[2]int]bool

// formsMatrix draws an nrows x ncols matrix whose rows sit on both sides
// of the list/bitmap crossover: each row's length is drawn up to twice
// the most entries a list row holds, so about half the rows are lists
// and half bitmaps, and unions of two lists often cross over.
func formsMatrix(rng *rand.Rand, nrows, ncols int) (*Bool, refSet) {
	m, ref := NewBool(nrows, ncols), refSet{}
	limit := 2*2*nwords(ncols) + 2
	for i := range nrows {
		for _, j := range rng.Perm(ncols)[:min(ncols, rng.Intn(limit+1))] {
			m.Set(i, j)
			ref[[2]int{i, j}] = true
		}
	}
	return m, ref
}

func (r refSet) union(o refSet) refSet {
	out := refSet{}
	for p := range r {
		out[p] = true
	}
	for p := range o {
		out[p] = true
	}
	return out
}

func (r refSet) minus(o refSet) refSet {
	out := refSet{}
	for p := range r {
		if !o[p] {
			out[p] = true
		}
	}
	return out
}

func (r refSet) mul(o refSet) refSet {
	byRow := map[int][]int{}
	for p := range o {
		byRow[p[0]] = append(byRow[p[0]], p[1])
	}
	out := refSet{}
	for p := range r {
		for _, j := range byRow[p[1]] {
			out[[2]int{p[0], j}] = true
		}
	}
	return out
}

func (r refSet) rows(set *Vector) refSet {
	out := refSet{}
	for p := range r {
		if set.Get(p[0]) {
			out[p] = true
		}
	}
	return out
}

// sorted returns r's entries in row-major order.
func (r refSet) sorted() [][2]int {
	out := make([][2]int, 0, len(r))
	for p := range r {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return out
}

// matches reports, through every read method, whether m is valid and
// holds exactly want.
func matches(m *Bool, want refSet) error {
	if err := m.validate(); err != nil {
		return err
	}
	if m.NVals() != len(want) {
		return fmt.Errorf("NVals %d, want %d", m.NVals(), len(want))
	}
	pairs := want.sorted()
	if got := m.Pairs(); !slices.Equal(got, pairs) {
		return fmt.Errorf("Pairs %v, want %v", got, pairs)
	}
	var iterated [][2]int
	m.Iterate(func(i, j int) bool {
		iterated = append(iterated, [2]int{i, j})
		return true
	})
	if !slices.Equal(iterated, pairs) {
		return fmt.Errorf("Iterate %v, want %v", iterated, pairs)
	}
	for i := range m.NRows() {
		var row []uint32
		for j := range m.NCols() {
			if m.Get(i, j) != want[[2]int{i, j}] {
				return fmt.Errorf("Get(%d,%d) = %v", i, j, !want[[2]int{i, j}])
			}
			if want[[2]int{i, j}] {
				row = append(row, uint32(j))
			}
		}
		if got := m.Row(i); !slices.Equal(got, row) {
			return fmt.Errorf("Row(%d) = %v, want %v", i, got, row)
		}
	}
	return nil
}

// TestBoolFormsQuick checks every Bool kernel and method against a set
// of pairs, on matrices 40 and 200 columns wide whose rows are lists and
// bitmaps side by side, including rows that cross over inside the
// operation.
func TestBoolFormsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{40, 200}[rng.Intn(2)]
		nrows := 1 + rng.Intn(24)
		a, ra := formsMatrix(rng, nrows, n)
		b, rb := formsMatrix(rng, nrows, n)
		sq, rsq := formsMatrix(rng, n, n)
		set := rowSet(rng, nrows)
		check := func(what string, m *Bool, want refSet) bool {
			if err := matches(m, want); err != nil {
				t.Errorf("seed %d, %d columns, %s: %v", seed, n, what, err)
				return false
			}
			return true
		}
		ok := check("built by Set", a, ra)

		// Equal across insertion orders, and across forms: a matrix
		// widened by Resize keeps bitmaps its fresh twin holds as lists.
		twin := NewBool(nrows, n)
		pairs := ra.sorted()
		for _, x := range rng.Perm(len(pairs)) {
			twin.Set(pairs[x][0], pairs[x][1])
		}
		wide := a.Clone()
		wide.Resize(nrows+2, 3*n)
		wideTwin := NewBoolFromPairs(nrows+2, 3*n, pairs)
		if !a.Equal(twin) || !wide.Equal(wideTwin) || !wideTwin.Equal(wide) || a.Equal(b) != (len(ra.minus(rb))+len(rb.minus(ra)) == 0) {
			t.Errorf("seed %d: Equal disagrees with the entries", seed)
			return false
		}
		// Set and Get beyond a widened bitmap's end.
		wideRef := ra.union(refSet{})
		for k := 0; k < 2*nrows; k++ {
			i, j := rng.Intn(nrows+2), rng.Intn(3*n)
			wide.Set(i, j)
			wideRef[[2]int{i, j}] = true
		}
		ok = ok && check("Resize then Set", wide, wideRef)
		wide.Set(0, 3*n-1)
		wideRef[[2]int{0, 3*n - 1}] = true
		AddInPlace(wide, wideTwin)
		ok = ok && check("Resize then AddInPlace", wide, wideRef)

		// Clones: deep, copy-on-write both ways, and frozen.
		c := a.Clone()
		AddInPlace(c, b)
		ok = ok && check("Clone after the clone grew", a, ra) && check("grown Clone", c, ra.union(rb))
		cow := a.CloneCOW()
		AddInPlace(cow, b) // in-place ORs into shared bitmaps
		ok = ok && check("CloneCOW parent after the child's OR", a, ra) && check("CloneCOW child", cow, ra.union(rb))
		cow = a.CloneCOW()
		AddRowsInPlace(a, b, set)
		ok = ok && check("CloneCOW child after the parent's OR", cow, ra) && check("AddRowsInPlace", a, ra.union(rb.rows(set)))
		a = cow
		frozen := a.CloneFrozen()
		for k := 0; k < n; k++ {
			frozen.Set(rng.Intn(nrows), rng.Intn(n))
		}
		AddInPlace(frozen, b)
		ok = ok && check("CloneFrozen source after the clone grew", a, ra)

		// Kernels.
		ok = ok && check("Mul", Mul(a, sq), ra.mul(rsq))
		if prod, err := MulCtx(context.Background(), a, sq); err != nil || !check("MulCtx", prod, ra.mul(rsq)) {
			return false
		}
		sum := a.Clone()
		if changed := AddInPlace(sum, b); changed != (len(rb.minus(ra)) > 0) {
			t.Errorf("seed %d: AddInPlace changed = %v", seed, changed)
			return false
		}
		ok = ok && check("AddInPlace", sum, ra.union(rb))
		ok = ok && check("Sub", Sub(a, b), ra.minus(rb)) && check("Sub of a union", Sub(sum, a), rb.minus(ra))
		tr := refSet{}
		for p := range ra {
			tr[[2]int{p[1], p[0]}] = true
		}
		ok = ok && check("Transpose", Transpose(a), tr) && check("Transpose twice", Transpose(Transpose(a)), ra)
		ok = ok && check("ExtractRows", ExtractRows(a, set), ra.rows(set))
		ok = ok && check("SelectRows", SelectRows(a, set).toBool(), ra.rows(set)) && check("ListRows", ListRows(a).toBool(), ra)
		cols, vm := NewVector(n), NewVector(n)
		for p := range ra {
			cols.Set(p[1])
			if set.Get(p[0]) {
				vm.Set(p[1])
			}
		}
		if !ReduceCols(a).Equal(cols) || !VecMul(set, a).Equal(vm) {
			t.Errorf("seed %d: ReduceCols or VecMul disagrees with the entries", seed)
			return false
		}

		// The masked multiply-accumulate, with either left operand form.
		for _, left := range []Operand{a, SelectRows(a, set)} {
			into, rinto := b.Clone(), rb
			want := ra.mul(rsq)
			if left != Operand(a) {
				want = ra.rows(set).mul(rsq)
			}
			added, nnz, err := MulAddRows(context.Background(), into, left, sq, nil)
			if err != nil || nnz != len(want) {
				t.Errorf("seed %d: MulAddRows nnz %d, want %d (%v)", seed, nnz, len(want), err)
				return false
			}
			ok = ok && check(fmt.Sprintf("MulAddRows %T into t", left), into, rinto.union(want)) &&
				check(fmt.Sprintf("MulAddRows %T added", left), added.toBool(), want.minus(rinto))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapHelpers: bitmaps of different lengths compare as zero past
// the shorter one's end, against each other and against a list.
func TestBitmapHelpers(t *testing.T) {
	short, long := []uint64{1 << 3}, []uint64{1 << 3, 0}
	if !wordsEqual(short, long) || !wordsEqual(long, short) {
		t.Fatal("a zero tail word made two equal bitmaps differ")
	}
	if long[1] = 1; wordsEqual(short, long) || wordsEqual(long, short) {
		t.Fatal("a set bit past the shorter bitmap's end went unseen")
	}
	if !listIsBits([]uint32{3, 64}, long) || listIsBits([]uint32{3}, long) || listIsBits([]uint32{3, 65}, long) {
		t.Fatal("listIsBits disagrees with the columns")
	}
	if got := appendBits(nil, long); len(got) != 2 || got[0] != 3 || got[1] != 64 || popcount(long) != 2 {
		t.Fatalf("appendBits = %v, popcount %d", got, popcount(long))
	}
	if !hasBit(long, 64) || hasBit(short, 64) || hasBit(long, 1000) {
		t.Fatal("hasBit reads past a bitmap's end")
	}
}
