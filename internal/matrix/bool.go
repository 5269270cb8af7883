package matrix

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Bool is a Boolean matrix stored row-wise: a row table (slots) with a
// slot for every row, so row i is an index away. Each non-empty row is a
// list or, past listMax, a bitmap; since a row only ever grows, it never
// turns back into a list.
//
// The zero value is not usable; construct with NewBool.
type Bool struct {
	nrows, ncols int
	// A bitmap shorter than ⌈ncols/64⌉ words (the matrix was widened by
	// Resize) reads as zero past its end.
	slots
	nvals int

	// shared marks rows whose backing arrays, list or bitmap, may be
	// aliased by a copy-on-write sibling (CloneCOW). A shared row must be
	// copied before any in-place mutation; rows replaced wholesale by a
	// new slice shed the mark with the old pointer. nil when the matrix
	// never took part in a COW clone.
	shared []bool
}

// setBits installs b, which the matrix owns, as row i's bitmap and drops
// its list.
func (m *Bool) setBits(i int, b []uint64) {
	if m.bits == nil {
		m.bits = make([][]uint64, m.nrows)
	}
	m.bits[i], m.rows[i] = b, nil
	m.markOwned(i)
}

// setRow installs a new row the matrix owns as row i, a list or empty
// row: the list row, or the bitmap b when it is non-nil, of n entries.
func (m *Bool) setRow(i int, row []uint32, b []uint64, n int) {
	m.nvals += n - len(m.rows[i])
	if b != nil {
		m.setBits(i, b)
		return
	}
	m.rows[i] = row
	m.markOwned(i)
}

// orInto ORs a row, the sorted list row or the bitmap b when it is
// non-nil, into row i: in place for a bitmap row, a word at a time from
// a bitmap, and as a new union (orRows) for a list or empty row. It
// never keeps row or b.
func (m *Bool) orInto(i int, row []uint32, b []uint64) {
	if m.bitRow(i) == nil {
		u, words, n := orRows(m.rows[i], nil, row, b, m.ncols)
		m.setRow(i, u, words, n)
		return
	}
	m.ensureOwned(i)
	mb := m.growBits(m.bits[i])
	m.bits[i] = mb
	m.nvals += orWords(mb, b)
	for _, c := range row {
		if bit := uint64(1) << (c & 63); mb[c>>6]&bit == 0 {
			mb[c>>6] |= bit
			m.nvals++
		}
	}
}

// orRows returns the union of two rows of ncols columns, each a sorted
// list r or, when s is non-nil, a bitmap s, as a new row in the smaller
// form: a list while the union is within the crossover, a bitmap past
// it. A bitmap side is past the crossover, so a union with one is a
// bitmap. It also returns the union's entry count.
func orRows(ra []uint32, sa []uint64, rb []uint32, sb []uint64, ncols int) (row []uint32, b []uint64, n int) {
	if sa == nil && sb == nil {
		row = unionRows(ra, rb)
		if len(row) <= listMax(ncols) {
			return row, nil, len(row)
		}
		return nil, bitsOf(row, ncols), len(row)
	}
	if sa == nil {
		ra, sa, rb, sb = rb, sb, ra, sa
	}
	b = make([]uint64, nwords(ncols))
	copy(b, sa)
	orWords(b, sb)
	for _, c := range rb {
		b[c>>6] |= 1 << (c & 63)
	}
	return nil, b, popcount(b)
}

// bitsOf returns the bitmap of the sorted columns row.
func bitsOf(row []uint32, ncols int) []uint64 {
	b := make([]uint64, nwords(ncols))
	for _, c := range row {
		b[c>>6] |= 1 << (c & 63)
	}
	return b
}

// NewBool returns an empty nrows x ncols Boolean matrix.
func NewBool(nrows, ncols int) *Bool {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", nrows, ncols))
	}
	return &Bool{nrows: nrows, ncols: ncols, slots: slots{rows: make([][]uint32, nrows)}}
}

// NewBoolFromPairs builds a matrix from (row, col) coordinate pairs.
// Pairs may be unordered and may repeat.
func NewBoolFromPairs(nrows, ncols int, pairs [][2]int) *Bool {
	m := NewBool(nrows, ncols)
	for _, p := range pairs {
		m.Set(p[0], p[1])
	}
	return m
}

// NRows returns the number of rows.
func (m *Bool) NRows() int { return m.nrows }

// NCols returns the number of columns.
func (m *Bool) NCols() int { return m.ncols }

// NVals returns the number of stored (true) entries.
func (m *Bool) NVals() int { return m.nvals }

// Empty reports whether the matrix has no true entries.
func (m *Bool) Empty() bool { return m.nvals == 0 }

func (m *Bool) checkIndex(i, j int) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.nrows, m.ncols))
	}
}

// ensureOwned copies row i when its backing array may be shared with a
// COW sibling, so in-place mutation cannot corrupt the other matrix.
func (m *Bool) ensureOwned(i int) {
	if m.shared != nil && m.shared[i] {
		if b := m.bitRow(i); b != nil {
			m.bits[i] = slices.Clone(b)
		} else {
			m.rows[i] = slices.Clone(m.rows[i])
		}
		m.shared[i] = false
	}
}

// markOwned records that row i was replaced with a freshly allocated
// slice and no longer aliases a COW sibling.
func (m *Bool) markOwned(i int) {
	if m.shared != nil {
		m.shared[i] = false
	}
}

// cloneShared returns a clone whose row tables alias m's rows, each
// non-empty one marked shared on the clone's side.
func (m *Bool) cloneShared() *Bool {
	c := &Bool{nrows: m.nrows, ncols: m.ncols, nvals: m.nvals,
		slots: slots{rows: slices.Clone(m.rows)}, shared: make([]bool, m.nrows)}
	if m.bits != nil {
		c.bits = slices.Clone(m.bits)
	}
	for i := range m.rows {
		c.shared[i] = len(m.rows[i]) > 0 || m.bitRow(i) != nil
	}
	return c
}

// CloneCOW returns a copy-on-write clone: the clone shares every row's
// backing array with m until either side mutates that row. Both
// matrices mark the rows shared, so in-place mutation on either side
// copies first and the other side observes no change.
func (m *Bool) CloneCOW() *Bool {
	c := m.cloneShared()
	if m.shared == nil {
		m.shared = make([]bool, m.nrows)
	}
	for i, sh := range c.shared {
		m.shared[i] = m.shared[i] || sh
	}
	return c
}

// CloneFrozen returns a copy-on-write clone of a matrix that will
// never be mutated again. Only the clone's rows are marked shared —
// m itself is not written at all, so a published snapshot stays
// bit-for-bit immutable while the clone copies rows lazily on its
// first write. The caller owns the freeze promise: mutating m after
// CloneFrozen corrupts the clone through the aliased rows (use
// CloneCOW when both sides stay mutable).
func (m *Bool) CloneFrozen() *Bool { return m.cloneShared() }

// Set makes entry (i, j) true.
func (m *Bool) Set(i, j int) {
	m.checkIndex(i, j)
	if b := m.bitRow(i); b != nil {
		w, bit := j>>6, uint64(1)<<(j&63)
		if w < len(b) && b[w]&bit != 0 {
			return
		}
		m.ensureOwned(i)
		m.bits[i] = m.growBits(m.bits[i])
		m.bits[i][w] |= bit
		m.nvals++
		return
	}
	m.ensureOwned(i)
	row := m.rows[i]
	c := uint32(j)
	k := sort.Search(len(row), func(x int) bool { return row[x] >= c })
	if k < len(row) && row[k] == c {
		return
	}
	row = append(row, 0)
	copy(row[k+1:], row[k:])
	row[k] = c
	m.rows[i] = row
	m.nvals++
	if len(row) > listMax(m.ncols) {
		m.setBits(i, bitsOf(row, m.ncols))
	}
}

// growBits returns b, which the matrix owns, widened to the matrix's
// full word count.
func (m *Bool) growBits(b []uint64) []uint64 {
	if n := nwords(m.ncols); len(b) < n {
		return append(b, make([]uint64, n-len(b))...)
	}
	return b
}

// Get reports whether entry (i, j) is true.
func (m *Bool) Get(i, j int) bool {
	m.checkIndex(i, j)
	if b := m.bitRow(i); b != nil {
		return hasBit(b, uint32(j))
	}
	row := m.rows[i]
	c := uint32(j)
	k := sort.Search(len(row), func(x int) bool { return row[x] >= c })
	return k < len(row) && row[k] == c
}

// Row returns the sorted column indices of row i. A list row is
// returned as the matrix holds it, a bitmap row decoded into a new
// slice; either way the slice must not be modified.
func (m *Bool) Row(i int) []uint32 {
	if i < 0 || i >= m.nrows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.nrows))
	}
	var buf []uint32
	return m.cols(i, &buf)
}

// EachCol calls fn on row i's columns, ascending, until fn returns false.
func (m *Bool) EachCol(i int, fn func(j int) bool) {
	for _, c := range m.rows[i] { // nil for a bitmap row
		if !fn(int(c)) {
			return
		}
	}
	for w, word := range m.bitRow(i) {
		for ; word != 0; word &= word - 1 {
			if !fn(w<<6 | bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// RowLen returns the number of entries of row i.
func (m *Bool) RowLen(i int) int { return m.rowLen(i) }

// Clone returns a deep copy of the matrix.
func (m *Bool) Clone() *Bool {
	c := NewBool(m.nrows, m.ncols)
	c.nvals = m.nvals
	for i, row := range m.rows {
		if len(row) > 0 {
			c.rows[i] = slices.Clone(row)
		}
	}
	if m.bits != nil {
		c.bits = make([][]uint64, m.nrows)
		for i, b := range m.bits {
			if b != nil {
				c.bits[i] = slices.Clone(b)
			}
		}
	}
	return c
}

// Equal reports whether the two matrices have the same shape and entries.
func (m *Bool) Equal(o *Bool) bool {
	if m.nrows != o.nrows || m.ncols != o.ncols || m.nvals != o.nvals {
		return false
	}
	var mbuf, obuf []uint32
	for i := range m.rows {
		if !slices.Equal(m.cols(i, &mbuf), o.cols(i, &obuf)) {
			return false
		}
	}
	return true
}

// Pairs returns all true entries as (row, col) pairs in row-major order.
func (m *Bool) Pairs() [][2]int { return pairs(m) }

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false.
func (m *Bool) Iterate(fn func(i, j int) bool) { m.each(nil, fn) }

// Resize grows the matrix to at least nrows x ncols, keeping entries.
// Shrinking is not supported and panics. Bitmap rows keep their length
// and are widened when next written.
func (m *Bool) Resize(nrows, ncols int) {
	if nrows < m.nrows || ncols < m.ncols {
		panic("matrix: Resize cannot shrink")
	}
	if nrows > m.nrows {
		m.rows = grown(m.rows, nrows)
		if m.bits != nil {
			m.bits = grown(m.bits, nrows)
		}
		if m.shared != nil {
			m.shared = grown(m.shared, nrows)
		}
		m.nrows = nrows
	}
	m.ncols = ncols
}

// grown returns s lengthened to n with zero values, in its own array
// when the capacity allows: a row table is never shared between
// matrices, so its spare capacity is its own.
func grown[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// String renders small matrices as a 0/1 grid; large matrices are
// summarized. Intended for debugging and test failure messages.
func (m *Bool) String() string {
	if m.nrows > 16 || m.ncols > 32 {
		return fmt.Sprintf("Bool{%dx%d, %d vals}", m.nrows, m.ncols, m.nvals)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Bool %dx%d:\n", m.nrows, m.ncols)
	for i := 0; i < m.nrows; i++ {
		for j := 0; j < m.ncols; j++ {
			if m.Get(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
