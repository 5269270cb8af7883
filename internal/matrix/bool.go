package matrix

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Bool is a Boolean matrix stored row-wise. Each non-empty row takes
// whichever of two forms is smaller: a sorted, duplicate-free list of
// column indices (4 bytes an entry), or a bitmap of ⌈ncols/64⌉ words
// (8 bytes a word). A row turns into a bitmap once its list would take
// more bytes, 4·len > 8·⌈ncols/64⌉, and since a row only ever grows it
// never turns back.
//
// The zero value is not usable; construct with NewBool.
type Bool struct {
	nrows, ncols int
	rows         [][]uint32 // list rows; nil for a bitmap or empty row
	nvals        int

	// bits holds the bitmap rows: bits[i] is row i's words, nil for a
	// list or empty row. The table itself stays nil until the first row
	// turns into a bitmap, so a matrix of short rows pays nothing for it.
	// A bitmap shorter than ⌈ncols/64⌉ words (the matrix was widened by
	// Resize) reads as zero past its end.
	bits [][]uint64

	// shared marks rows whose backing arrays, list or bitmap, may be
	// aliased by a copy-on-write sibling (CloneCOW). A shared row must be
	// copied before any in-place mutation; rows replaced wholesale by a
	// new slice shed the mark with the old pointer. nil when the matrix
	// never took part in a COW clone.
	shared []bool
}

// nwords is the length of a bitmap row of ncols columns.
func nwords(ncols int) int { return (ncols + 63) / 64 }

// listMax is the most entries a list row holds: one more, and its list
// would take more bytes than a bitmap.
func (m *Bool) listMax() int { return 2 * nwords(m.ncols) }

// bitRow returns row i's bitmap, or nil when the row is a list or empty.
func (m *Bool) bitRow(i int) []uint64 {
	if m.bits == nil {
		return nil
	}
	return m.bits[i]
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

// setList installs row, which the matrix owns and which holds grown
// entries more than row i did, as row i: a list while it is short
// enough, a bitmap once it is not.
func (m *Bool) setList(i int, row []uint32, grown int) {
	m.nvals += grown
	if len(row) > m.listMax() {
		m.setBits(i, bitsOf(row, m.ncols))
		return
	}
	m.rows[i] = row
	m.markOwned(i)
}

// bitsOf returns the bitmap of the sorted columns row.
func bitsOf(row []uint32, ncols int) []uint64 {
	b := make([]uint64, nwords(ncols))
	for _, c := range row {
		b[c>>6] |= 1 << (c & 63)
	}
	return b
}

// cols returns the columns of row i: the list itself, or the bitmap
// decoded into *buf, whose array the next call reuses.
func (m *Bool) cols(i int, buf *[]uint32) []uint32 {
	if b := m.bitRow(i); b != nil {
		*buf = appendBits((*buf)[:0], b)
		return *buf
	}
	return m.rows[i]
}

// rowLen returns the number of entries of row i.
func (m *Bool) rowLen(i int) int {
	if b := m.bitRow(i); b != nil {
		return popcount(b)
	}
	return len(m.rows[i])
}

// NewBool returns an empty nrows x ncols Boolean matrix.
func NewBool(nrows, ncols int) *Bool {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", nrows, ncols))
	}
	return &Bool{nrows: nrows, ncols: ncols, rows: make([][]uint32, nrows)}
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
		rows: slices.Clone(m.rows), shared: make([]bool, m.nrows)}
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
	if len(row) > m.listMax() {
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
	for i := range m.rows {
		mb, ob := m.bitRow(i), o.bitRow(i)
		var same bool
		switch {
		case mb == nil && ob == nil:
			same = slices.Equal(m.rows[i], o.rows[i])
		case mb != nil && ob != nil:
			same = wordsEqual(mb, ob)
		case mb != nil:
			same = listIsBits(o.rows[i], mb)
		default:
			same = listIsBits(m.rows[i], ob)
		}
		if !same {
			return false
		}
	}
	return true
}

// Pairs returns all true entries as (row, col) pairs in row-major order.
func (m *Bool) Pairs() [][2]int {
	out := make([][2]int, 0, m.nvals)
	m.Iterate(func(i, j int) bool {
		out = append(out, [2]int{i, j})
		return true
	})
	return out
}

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false.
func (m *Bool) Iterate(fn func(i, j int) bool) {
	var buf []uint32
	for i := range m.rows {
		for _, c := range m.cols(i, &buf) {
			if !fn(i, int(c)) {
				return
			}
		}
	}
}

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

// grown returns a copy of s lengthened to n with zero values.
func grown[T any](s []T, n int) []T {
	g := make([]T, n)
	copy(g, s)
	return g
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

// validate checks internal invariants; used by tests.
func (m *Bool) validate() error {
	if m.shared != nil && len(m.shared) != m.nrows {
		return fmt.Errorf("shared marks length %d does not match %d rows", len(m.shared), m.nrows)
	}
	if m.bits != nil && len(m.bits) != m.nrows {
		return fmt.Errorf("bitmap table length %d does not match %d rows", len(m.bits), m.nrows)
	}
	n := 0
	for i, row := range m.rows {
		if b := m.bitRow(i); b != nil {
			if row != nil {
				return fmt.Errorf("row %d is both a list and a bitmap", i)
			}
			if len(b) > nwords(m.ncols) {
				return fmt.Errorf("row %d: bitmap of %d words for %d columns", i, len(b), m.ncols)
			}
			if last := b[len(b)-1]; len(b) == nwords(m.ncols) && m.ncols%64 != 0 && last>>(m.ncols%64) != 0 {
				return fmt.Errorf("row %d: bitmap holds a column past %d", i, m.ncols)
			}
			if popcount(b) == 0 {
				return fmt.Errorf("row %d: empty bitmap", i)
			}
			n += popcount(b)
			continue
		}
		if len(row) > m.listMax() {
			return fmt.Errorf("row %d: list of %d entries, past the bitmap crossover %d", i, len(row), m.listMax())
		}
		for k, c := range row {
			if int(c) >= m.ncols {
				return fmt.Errorf("row %d: column %d out of range %d", i, c, m.ncols)
			}
			if k > 0 && row[k-1] >= c {
				return fmt.Errorf("row %d: columns not strictly sorted at %d", i, k)
			}
		}
		n += len(row)
	}
	if n != m.nvals {
		return fmt.Errorf("nvals %d does not match stored entries %d", m.nvals, n)
	}
	return nil
}
