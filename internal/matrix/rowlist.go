package matrix

import (
	"context"
	"fmt"
	"slices"
)

// RowList is a hypersparse Boolean matrix (GraphBLAS's hypersparse form,
// DCSR): the sorted ids of its non-empty rows and, for each, the sorted,
// duplicate-free slice of its column indices. It has no n-slot row
// table, so building, scanning or multiplying one costs the rows it
// holds and the products they form, not the dimension. The fixpoint
// driver keeps every transient operand in this form (ΔT, ΔM, M and the
// products); the relations it grows stay Bool, whose rows the products
// read by index.
//
// A RowList is read-only once built. Lists built from one another
// (Restrict, Union) share row slices. A nil *RowList is an empty matrix
// of unknown shape.
type RowList struct {
	nrows, ncols int
	ids          []uint32   // sorted ids of the non-empty rows
	rows         [][]uint32 // rows[k] holds the columns of row ids[k]
	nvals        int
}

// Operand is a matrix the row-list kernels read: a *Bool, whose row i
// is found by index, or a *RowList, whose rows are found by search.
type Operand interface {
	NRows() int
	NCols() int
	NVals() int
	// table returns the row slots: slot x is row ids[x], or row x when
	// ids is nil, and holds the list rows[x] or, when bits is non-nil
	// and bits[x] is, that bitmap.
	table() (ids []uint32, rows [][]uint32, bits [][]uint64)
}

func (m *Bool) table() ([]uint32, [][]uint32, [][]uint64) { return nil, m.rows, m.bits }

func (r *RowList) table() ([]uint32, [][]uint32, [][]uint64) { return r.ids, r.rows, nil }

// NRows returns the number of rows of the matrix the list represents.
func (r *RowList) NRows() int { return r.nrows }

// NCols returns the number of columns.
func (r *RowList) NCols() int { return r.ncols }

// NVals returns the number of stored (true) entries; 0 for nil.
func (r *RowList) NVals() int {
	if r == nil {
		return 0
	}
	return r.nvals
}

// Empty reports whether the list holds no entry; true for nil.
func (r *RowList) Empty() bool { return r.NVals() == 0 }

// Row returns the sorted column indices of row i (nil when the row is
// empty). The slice is shared and must not be modified.
func (r *RowList) Row(i int) []uint32 {
	if i < 0 || i >= r.nrows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, r.nrows))
	}
	if k, ok := slices.BinarySearch(r.ids, uint32(i)); ok {
		return r.rows[k]
	}
	return nil
}

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false.
func (r *RowList) Iterate(fn func(i, j int) bool) {
	for k, row := range r.rows {
		for _, c := range row {
			if !fn(int(r.ids[k]), int(c)) {
				return
			}
		}
	}
}

// Pairs returns all true entries as (row, col) pairs in row-major order.
func (r *RowList) Pairs() [][2]int {
	out := make([][2]int, 0, r.nvals)
	r.Iterate(func(i, j int) bool {
		out = append(out, [2]int{i, j})
		return true
	})
	return out
}

// push appends row i, which must be non-empty and follow every row the
// list holds.
func (r *RowList) push(i uint32, row []uint32) {
	r.ids = append(r.ids, i)
	r.rows = append(r.rows, row)
	r.nvals += len(row)
}

// SelectRows returns copies of the rows of a listed in set. The copies
// share one array, and none aliases a row of a, so later writes to a
// (Bool.Set grows a row in place) cannot reach the list. A bitmap row
// is decoded into that array.
func SelectRows(a *Bool, set *Vector) *RowList {
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: SelectRows vector size %d does not match rows %d", set.n, a.nrows))
	}
	return selectRows(a, set.idx, false)
}

// ListRows returns copies of every non-empty row of a, as SelectRows
// does for a set holding every row.
func ListRows(a *Bool) *RowList { return selectRows(a, nil, true) }

func selectRows(a *Bool, set []uint32, all bool) *RowList {
	n, id := len(set), func(x int) int { return int(set[x]) }
	if all {
		n, id = a.nrows, func(x int) int { return x }
	}
	out := &RowList{nrows: a.nrows, ncols: a.ncols}
	live, total := 0, 0
	for x := range n {
		if l := a.rowLen(id(x)); l > 0 {
			live++
			total += l
		}
	}
	if live == 0 {
		return out
	}
	cols := make([]uint32, 0, total)
	out.ids = make([]uint32, 0, live)
	out.rows = make([][]uint32, 0, live)
	for x := range n {
		i := id(x)
		lo := len(cols)
		if b := a.bitRow(i); b != nil {
			cols = appendBits(cols, b)
		} else {
			cols = append(cols, a.rows[i]...)
		}
		if len(cols) > lo {
			out.push(uint32(i), cols[lo:len(cols):len(cols)])
		}
	}
	return out
}

// Restrict returns the rows of r listed in set. It walks the shorter of
// the two lists and searches the longer, and shares r's rows.
func (r *RowList) Restrict(set *Vector) *RowList {
	if set.n != r.nrows {
		panic(fmt.Sprintf("matrix: Restrict vector size %d does not match rows %d", set.n, r.nrows))
	}
	out := &RowList{nrows: r.nrows, ncols: r.ncols}
	if len(r.ids) <= len(set.idx) {
		at := 0
		for k, i := range r.ids {
			if at = gallop(set.idx, at, i); at == len(set.idx) {
				break
			}
			if set.idx[at] == i {
				out.push(i, r.rows[k])
			}
		}
		return out
	}
	at := 0
	for _, i := range set.idx {
		if at = gallop(r.ids, at, i); at == len(r.ids) {
			break
		}
		if r.ids[at] == i {
			out.push(i, r.rows[at])
		}
	}
	return out
}

// Union returns a ∪ b. A row held by one side only is shared; a row held
// by both is merged into a new slice. When one side is empty, the other
// is returned itself.
func Union(a, b *RowList) *RowList {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		panic(fmt.Sprintf("matrix: Union shape mismatch %dx%d vs %dx%d", a.nrows, a.ncols, b.nrows, b.ncols))
	}
	if b.nvals == 0 {
		return a
	}
	if a.nvals == 0 {
		return b
	}
	out := &RowList{nrows: a.nrows, ncols: a.ncols,
		ids: make([]uint32, 0, len(a.ids)+len(b.ids)), rows: make([][]uint32, 0, len(a.ids)+len(b.ids))}
	x, y := 0, 0
	for x < len(a.ids) || y < len(b.ids) {
		switch {
		case y == len(b.ids) || x < len(a.ids) && a.ids[x] < b.ids[y]:
			out.push(a.ids[x], a.rows[x])
			x++
		case x == len(a.ids) || b.ids[y] < a.ids[x]:
			out.push(b.ids[y], b.rows[y])
			y++
		default:
			out.push(a.ids[x], unionRows(a.rows[x], b.rows[y]))
			x++
			y++
		}
	}
	return out
}

// Cols returns the vector of columns holding at least one entry: the
// paper's getDst of the pairs r represents.
func (r *RowList) Cols() *Vector { return reduceCols(r) }

// MulAddRows is the masked multiply-accumulate t<¬t> ∪= a × b: it adds
// to t the entries of the Boolean product that t lacks, and returns
// them, as a row list, with the product's entry count before the mask.
//
// It visits the non-empty rows of a and gathers row i of the product in
// an accumulator: row k of b is found by index in a *Bool and by search
// in a *RowList, and ORed in a word at a time when it is a bitmap, an
// entry at a time when it is a list. It then clears what row i of t
// holds — word by word for a bitmap row, bit by bit for a list row — and
// extracts only what is left. So the product costs a's rows and the
// products they form, and what t already holds is never extracted,
// sorted or merged.
//
// The new rows are folded into t once every row is gathered: a bitmap
// row of t takes them as bit sets in place, a list row is replaced by
// the union. So the product is a × b as the operands stood on entry,
// and t may be a or b itself. t never aliases the returned rows.
//
// The kernel polls ctx every ctxCheckRows rows of a. Once the context is
// done it stops gathering, folds the rows gathered so far into t and
// returns them with ctx.Err(): each is a true entry of the product.
//
// A non-nil wit receives, for every entry (i, j) of the product, one
// witness k with a[i,k] and b[k,j] both true, under Key(i, j).
func MulAddRows(ctx context.Context, t *Bool, a, b Operand, wit map[uint64]uint32) (added *RowList, nnz int, err error) {
	if a.NCols() != b.NRows() || t.nrows != a.NRows() || t.ncols != b.NCols() {
		panic(fmt.Sprintf("matrix: MulAddRows dimension mismatch %dx%d += %dx%d * %dx%d",
			t.nrows, t.ncols, a.NRows(), a.NCols(), b.NRows(), b.NCols()))
	}
	added = &RowList{nrows: t.nrows, ncols: t.ncols}
	if a.NVals() == 0 || b.NVals() == 0 {
		return added, 0, ctx.Err()
	}
	aIDs, aRows, aBits := a.table()
	bIDs, bRows, bBits := b.table()
	acc := getAccumulator(t.ncols)
	defer putAccumulator(acc)
	var buf []uint32
	for x, ra := range aRows {
		if x%ctxCheckRows == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if aBits != nil && aBits[x] != nil {
			buf = appendBits(buf[:0], aBits[x])
			ra = buf
		}
		if len(ra) == 0 {
			continue
		}
		i := uint32(x)
		if aIDs != nil {
			i = aIDs[x]
		}
		acc.reset()
		at := 0 // ra is sorted, so its rows of b are met in order
		for _, k := range ra {
			y := int(k)
			if bIDs != nil {
				if at = gallop(bIDs, at, k); at == len(bIDs) {
					break
				}
				if bIDs[at] != k {
					continue
				}
				y = at
			}
			var sb []uint64
			if bBits != nil {
				sb = bBits[y]
			}
			if wit != nil {
				acc.witness(wit, i, k, bRows[y], sb)
			}
			if sb != nil {
				acc.orBits(sb)
			} else {
				acc.orRow(bRows[y])
			}
		}
		if len(acc.touched) == 0 {
			continue
		}
		nnz += acc.count()
		acc.clearRow(t, int(i))
		if n := acc.count(); n > 0 {
			added.push(i, acc.extract(make([]uint32, 0, n)))
		}
	}
	for k, i := range added.ids {
		t.addNew(int(i), added.rows[k])
	}
	return added, nnz, err
}

// addNew adds the sorted columns row, none of which row i holds, to
// row i: in place for a bitmap row, as a new union for a list row.
func (m *Bool) addNew(i int, row []uint32) {
	if m.bitRow(i) == nil {
		m.setList(i, unionRows(m.rows[i], row), len(row))
		return
	}
	m.ensureOwned(i)
	b := m.growBits(m.bits[i])
	m.bits[i] = b
	for _, c := range row {
		b[c>>6] |= 1 << (c & 63)
	}
	m.nvals += len(row)
}

// gallop returns the index of the first element of the sorted s[at:]
// that is >= c (len(s) if none). It probes at, at+1, at+2, at+4, ...
// before a binary search, so a call costs the log of the distance it
// moves: a walk of m ascending values through s costs O(m log(len(s)/m)),
// no more than a merge, and the shorter side's length when s is long.
func gallop(s []uint32, at int, c uint32) int {
	if at >= len(s) || s[at] >= c {
		return at
	}
	bound := 1
	for at+bound < len(s) && s[at+bound] < c {
		bound <<= 1
	}
	// s[at+bound/2] < c, and s[at+bound] >= c unless it is past the end.
	lo, hi := at+bound/2+1, min(at+bound, len(s))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
