package matrix

// slots is the row table Bool and RowList share. Slot x holds a sorted,
// duplicate-free list of column indices, rows[x], or, when bits[x] is
// non-nil, a bitmap of ⌈ncols/64⌉ words; never both. Which one a row
// takes is listMax's rule. bits stays nil until the first bitmap row,
// so a table of short rows pays nothing for it. A Bool's slot x is row
// x; a RowList's is row ids[x].
type slots struct {
	rows [][]uint32 // list rows; nil for a bitmap or empty row
	bits [][]uint64 // bitmap rows; nil for a list or empty row
}

// nwords is the length of a bitmap row of ncols columns.
func nwords(ncols int) int { return (ncols + 63) / 64 }

// listMax is the most entries a list row of ncols columns holds: one
// more, 4·len > 8·⌈ncols/64⌉, and its list would take more bytes than a
// bitmap. A row past it is a bitmap wherever its form is decided.
func listMax(ncols int) int { return 2 * nwords(ncols) }

// bitRow returns slot x's bitmap, or nil when the row is a list or empty.
func (s *slots) bitRow(x int) []uint64 {
	if s.bits == nil {
		return nil
	}
	return s.bits[x]
}

// cols returns the columns of slot x: the list itself, or the bitmap
// decoded into *buf, whose array the next call reuses.
func (s *slots) cols(x int, buf *[]uint32) []uint32 {
	if b := s.bitRow(x); b != nil {
		*buf = appendBits((*buf)[:0], b)
		return *buf
	}
	return s.rows[x]
}

// rowLen returns the number of entries of slot x.
func (s *slots) rowLen(x int) int {
	if b := s.bitRow(x); b != nil {
		return popcount(b)
	}
	return len(s.rows[x])
}

// each calls fn for every entry in row-major order, slot x being row
// ids[x], or row x when ids is nil, and stops once fn returns false.
func (s *slots) each(ids []uint32, fn func(i, j int) bool) {
	var buf []uint32
	for x := range s.rows {
		i := x
		if ids != nil {
			i = int(ids[x])
		}
		for _, c := range s.cols(x, &buf) {
			if !fn(i, int(c)) {
				return
			}
		}
	}
}

// pairs returns all true entries of m as (row, col) pairs in row-major
// order.
func pairs(m interface {
	NVals() int
	Iterate(fn func(i, j int) bool)
}) [][2]int {
	out := make([][2]int, 0, m.NVals())
	m.Iterate(func(i, j int) bool {
		out = append(out, [2]int{i, j})
		return true
	})
	return out
}
