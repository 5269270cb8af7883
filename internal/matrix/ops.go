package matrix

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
)

// Mul returns the Boolean product a * b over the (OR, AND) semiring.
func Mul(a, b *Bool) *Bool {
	out, _ := MulCtx(context.Background(), a, b)
	return out
}

// AddInPlace ORs b into a and reports whether a changed.
func AddInPlace(a, b *Bool) bool {
	checkSameShape("AddInPlace", a, b)
	changed := false
	for i := range a.rows {
		changed = a.orRow(i, b) || changed
	}
	return changed
}

// AddRowsInPlace ORs the rows of b listed in rows, in any order, into
// a, a ∪= rows(b, rows), and reports whether a changed. It costs the
// listed rows and their entries, not a walk of a's row table.
func AddRowsInPlace(a, b *Bool, rows []uint32) bool {
	checkSameShape("AddRowsInPlace", a, b)
	changed := false
	for _, i := range rows {
		changed = a.orRow(int(i), b) || changed
	}
	return changed
}

// orRow ORs row i of b, which has m's shape, into row i of m (orInto)
// and reports whether it changed. A row that holds all of b's row is
// left as it is.
func (m *Bool) orRow(i int, b *Bool) bool {
	rb, sb := b.rows[i], b.bitRow(i)
	if mb := m.bitRow(i); mb != nil && !lacks(mb, rb, sb) || mb == nil && sb == nil && containsAll(m.rows[i], rb) {
		return false
	}
	before := m.nvals
	m.orInto(i, rb, sb)
	return m.nvals != before
}

// lacks reports whether the list rb or the bitmap sb holds a column the
// bitmap mb does not.
func lacks(mb []uint64, rb []uint32, sb []uint64) bool {
	for w, word := range sb {
		if w >= len(mb) && word != 0 || w < len(mb) && word&^mb[w] != 0 {
			return true
		}
	}
	for _, c := range rb {
		if !hasBit(mb, c) {
			return true
		}
	}
	return false
}

// orWords ORs src into dst, which is at least as long, and returns the
// number of columns dst gained.
func orWords(dst, src []uint64) int {
	grew := 0
	for w, word := range src {
		if n := word &^ dst[w]; n != 0 {
			dst[w] |= n
			grew += bits.OnesCount64(n)
		}
	}
	return grew
}

// Sub returns the set difference a \ b: entries of a not present in b.
func Sub(a, b *Bool) *Bool {
	checkSameShape("Sub", a, b)
	out := NewBool(a.nrows, a.ncols)
	acc := getAccumulator(a.ncols)
	defer putAccumulator(acc)
	for i := range a.rows {
		if len(a.rows[i]) == 0 && a.bitRow(i) == nil {
			continue
		}
		acc.reset()
		acc.orSlot(&a.slots, i)
		acc.clearRow(b, i)
		acc.install(out, i)
	}
	return out
}

// Transpose returns the transposed matrix. Its list rows are cut from
// one array, each to its own capacity, so a later Set on one
// reallocates it rather than write into its neighbour.
func Transpose(a *Bool) *Bool {
	out := NewBool(a.ncols, a.nrows)
	counts := make([]int, a.ncols)
	var buf []uint32
	for i := range a.rows {
		for _, c := range a.cols(i, &buf) {
			counts[c]++
		}
	}
	listed := 0
	for _, n := range counts {
		if n <= listMax(out.ncols) {
			listed += n
		}
	}
	flat := make([]uint32, listed)
	for j, n := range counts {
		switch {
		case n > listMax(out.ncols):
			out.setBits(j, make([]uint64, nwords(out.ncols)))
		case n > 0:
			out.rows[j], flat = flat[:0:n], flat[n:]
		}
	}
	for i := range a.rows {
		for _, c := range a.cols(i, &buf) {
			if b := out.bitRow(int(c)); b != nil {
				b[i>>6] |= 1 << (i & 63)
			} else {
				out.rows[c] = append(out.rows[c], uint32(i))
			}
		}
	}
	out.nvals = a.nvals
	return out
}

// ExtractRows returns a copy of a containing only the rows listed in set;
// all other rows are empty.
func ExtractRows(a *Bool, set *Vector) *Bool {
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: ExtractRows vector size %d does not match rows %d", set.n, a.nrows))
	}
	out := NewBool(a.nrows, a.ncols)
	for _, i := range set.idx {
		if b := a.bitRow(int(i)); b != nil {
			out.setBits(int(i), slices.Clone(b))
			out.nvals += popcount(b)
		} else if row := a.rows[i]; len(row) > 0 {
			out.rows[i] = slices.Clone(row)
			out.nvals += len(row)
		}
	}
	return out
}

func checkSameShape(op string, a, b *Bool) {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.nrows, a.ncols, b.nrows, b.ncols))
	}
}

// unionRows merges two sorted duplicate-free slices into a new slice.
func unionRows(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return append([]uint32(nil), b...)
	}
	if len(b) == 0 {
		return append([]uint32(nil), a...)
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// diffInPlace removes the elements of b from a, both sorted and
// duplicate-free, compacting a within its own array, and returns the
// result. It steps through b like a merge and gallops once a step is not
// enough, so it costs a merge when the two are alike and a's length
// when b is much longer.
func diffInPlace(a, b []uint32) []uint32 {
	out, at := a[:0], 0
	for x, c := range a {
		if at < len(b) && b[at] < c {
			if at++; at < len(b) && b[at] < c {
				at = gallop(b, at, c)
			}
		}
		if at == len(b) {
			return append(out, a[x:]...)
		}
		if b[at] != c {
			out = append(out, c)
		}
	}
	return out
}

// containsAll reports whether sorted slice a contains every element of b.
func containsAll(a, b []uint32) bool {
	if len(b) > len(a) {
		return false
	}
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i >= len(a) || a[i] != v {
			return false
		}
		i++
	}
	return true
}
