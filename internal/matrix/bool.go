package matrix

import (
	"fmt"
	"sort"
	"strings"
)

// Bool is a sparse Boolean matrix stored row-wise: rows[i] is the sorted,
// duplicate-free slice of column indices whose entries are true.
//
// The zero value is not usable; construct with NewBool.
type Bool struct {
	nrows, ncols int
	rows         [][]uint32
	nvals        int

	// shared marks rows whose backing arrays may be aliased by a
	// copy-on-write sibling (CloneCOW). A shared row must be copied
	// before any in-place mutation; rows replaced wholesale (AddInPlace,
	// AddListInPlace) shed the mark with the old pointer. nil when the
	// matrix never took part in a COW clone.
	shared []bool
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
		m.rows[i] = append([]uint32(nil), m.rows[i]...)
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

// CloneCOW returns a copy-on-write clone: the clone shares every row's
// backing array with m until either side mutates that row. Both
// matrices mark the rows shared, so in-place mutation on either side
// copies first and the other side observes no change.
func (m *Bool) CloneCOW() *Bool {
	c := &Bool{nrows: m.nrows, ncols: m.ncols, nvals: m.nvals,
		rows: make([][]uint32, m.nrows), shared: make([]bool, m.nrows)}
	copy(c.rows, m.rows)
	if m.shared == nil {
		m.shared = make([]bool, m.nrows)
	}
	for i, row := range m.rows {
		if len(row) > 0 {
			c.shared[i] = true
			m.shared[i] = true
		}
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
func (m *Bool) CloneFrozen() *Bool {
	c := &Bool{nrows: m.nrows, ncols: m.ncols, nvals: m.nvals,
		rows: make([][]uint32, m.nrows), shared: make([]bool, m.nrows)}
	copy(c.rows, m.rows)
	for i, row := range m.rows {
		if len(row) > 0 {
			c.shared[i] = true
		}
	}
	return c
}

// Set makes entry (i, j) true.
func (m *Bool) Set(i, j int) {
	m.checkIndex(i, j)
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
}

// Get reports whether entry (i, j) is true.
func (m *Bool) Get(i, j int) bool {
	m.checkIndex(i, j)
	row := m.rows[i]
	c := uint32(j)
	k := sort.Search(len(row), func(x int) bool { return row[x] >= c })
	return k < len(row) && row[k] == c
}

// Row returns the sorted column indices of row i. The returned slice is
// owned by the matrix and must not be modified.
func (m *Bool) Row(i int) []uint32 {
	if i < 0 || i >= m.nrows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.nrows))
	}
	return m.rows[i]
}

// Clone returns a deep copy of the matrix.
func (m *Bool) Clone() *Bool {
	c := NewBool(m.nrows, m.ncols)
	c.nvals = m.nvals
	for i, row := range m.rows {
		if len(row) == 0 {
			continue
		}
		c.rows[i] = append([]uint32(nil), row...)
	}
	return c
}

// Equal reports whether the two matrices have the same shape and entries.
func (m *Bool) Equal(o *Bool) bool {
	if m.nrows != o.nrows || m.ncols != o.ncols || m.nvals != o.nvals {
		return false
	}
	for i := range m.rows {
		a, b := m.rows[i], o.rows[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// Pairs returns all true entries as (row, col) pairs in row-major order.
func (m *Bool) Pairs() [][2]int {
	out := make([][2]int, 0, m.nvals)
	for i, row := range m.rows {
		for _, c := range row {
			out = append(out, [2]int{i, int(c)})
		}
	}
	return out
}

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false.
func (m *Bool) Iterate(fn func(i, j int) bool) {
	for i, row := range m.rows {
		for _, c := range row {
			if !fn(i, int(c)) {
				return
			}
		}
	}
}

// Resize grows the matrix to at least nrows x ncols, keeping entries.
// Shrinking is not supported and panics.
func (m *Bool) Resize(nrows, ncols int) {
	if nrows < m.nrows || ncols < m.ncols {
		panic("matrix: Resize cannot shrink")
	}
	if nrows > m.nrows {
		grown := make([][]uint32, nrows)
		copy(grown, m.rows)
		m.rows = grown
		if m.shared != nil {
			gs := make([]bool, nrows)
			copy(gs, m.shared)
			m.shared = gs
		}
		m.nrows = nrows
	}
	m.ncols = ncols
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
		row := m.rows[i]
		k := 0
		for j := 0; j < m.ncols; j++ {
			if k < len(row) && int(row[k]) == j {
				b.WriteByte('1')
				k++
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
		return fmt.Errorf("shared bitmap length %d does not match %d rows", len(m.shared), m.nrows)
	}
	n := 0
	for i, row := range m.rows {
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
