package matrix

import (
	"fmt"
	"math/bits"
	"slices"
)

// Mul returns the Boolean product a * b over the (OR, AND) semiring.
func Mul(a, b *Bool) *Bool {
	if a.ncols != b.nrows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d * %dx%d", a.nrows, a.ncols, b.nrows, b.ncols))
	}
	out := NewBool(a.nrows, b.ncols)
	if a.nvals == 0 || b.nvals == 0 {
		return out
	}
	acc := getAccumulator(b.ncols)
	mulRowsInto(a, b, out, 0, a.nrows, acc)
	putAccumulator(acc)
	return out
}

// mulRowsInto computes rows [lo, hi) of a*b into out using acc.
func mulRowsInto(a, b, out *Bool, lo, hi int, acc *accumulator) {
	var buf []uint32
	for i := lo; i < hi; i++ {
		ra := a.cols(i, &buf)
		if len(ra) == 0 {
			continue
		}
		acc.reset()
		for _, k := range ra {
			acc.orBoolRow(b, int(k))
		}
		acc.install(out, i)
	}
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

// AddRowsInPlace ORs the rows of b listed in set into a, a ∪= rows(b,
// set), and reports whether a changed. It costs the listed rows and
// their entries, not a walk of a's row table.
func AddRowsInPlace(a, b *Bool, set *Vector) bool {
	checkSameShape("AddRowsInPlace", a, b)
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: AddRowsInPlace vector size %d does not match rows %d", set.n, a.nrows))
	}
	changed := false
	for _, i := range set.idx {
		changed = a.orRow(int(i), b) || changed
	}
	return changed
}

// orRow ORs row i of b, which has m's shape, into row i of m and
// reports whether it changed. A bitmap row of m takes the new bits in
// place; a list row is replaced by the union, which is a bitmap once it
// is long enough or when b's row is one (b's bitmap rows are past the
// crossover unless Resize widened b).
func (m *Bool) orRow(i int, b *Bool) bool {
	rb, sb, mb := b.rows[i], b.bitRow(i), m.bitRow(i)
	if mb == nil && sb == nil {
		ra := m.rows[i]
		if len(rb) == 0 || containsAll(ra, rb) {
			return false
		}
		row := unionRows(ra, rb)
		m.setList(i, row, len(row)-len(ra))
		return true
	}
	if mb == nil {
		mb = bitsOf(m.rows[i], m.ncols)
		m.setBits(i, mb)
	}
	if !lacks(mb, rb, sb) {
		return false
	}
	m.ensureOwned(i)
	mb = m.growBits(m.bits[i])
	m.bits[i] = mb
	if sb != nil {
		m.nvals += orWords(mb, sb)
		return true
	}
	for _, c := range rb {
		if bit := uint64(1) << (c & 63); mb[c>>6]&bit == 0 {
			mb[c>>6] |= bit
			m.nvals++
		}
	}
	return true
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
		acc.orBoolRow(a, i)
		acc.clearRow(b, i)
		acc.install(out, i)
	}
	return out
}

// Transpose returns the transposed matrix.
func Transpose(a *Bool) *Bool {
	out := NewBool(a.ncols, a.nrows)
	counts := make([]int, a.ncols)
	var buf []uint32
	for i := range a.rows {
		for _, c := range a.cols(i, &buf) {
			counts[c]++
		}
	}
	for j, n := range counts {
		switch {
		case n > out.listMax():
			out.setBits(j, make([]uint64, nwords(out.ncols)))
		case n > 0:
			out.rows[j] = make([]uint32, 0, n)
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
