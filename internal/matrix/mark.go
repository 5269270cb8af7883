package matrix

import "math/bits"

// Mark is a vertex set of one bit per vertex (bit i&63 of word i>>6),
// whose members are tested and set in one step, so that filtering
// candidates through it costs the candidates, not the set.
type Mark []uint64

// NewMark returns an empty mark of n vertices.
func NewMark(n int) Mark { return make(Mark, nwords(n)) }

// Has reports whether vertex i is set.
func (m Mark) Has(i uint32) bool { return hasBit(m, i) }

// Add sets vertex i and reports whether it was clear.
func (m Mark) Add(i uint32) bool {
	w, bit := i>>6, uint64(1)<<(i&63)
	if m[w]&bit != 0 {
		return false
	}
	m[w] |= bit
	return true
}

// Remove clears vertex i.
func (m Mark) Remove(i uint32) { m[i>>6] &^= 1 << (i & 63) }

// Vector returns the set vertices as a vector of size n, n covering them.
func (m Mark) Vector(n int) *Vector { return &Vector{n: n, idx: appendBits(nil, m)} }

// AddAll sets every index of idx that m lacks and appends it to dst.
func (m Mark) AddAll(dst, idx []uint32) []uint32 {
	for _, i := range idx {
		if m.Add(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// AddCols sets every column of r (nil for none) that m lacks and
// appends it to dst: getDst(r) less m, in the order r's rows meet it. A
// list row is taken an entry at a time, a bitmap row a word at a time
// (word &^ m), so nothing is sorted or merged across rows.
func (m Mark) AddCols(dst []uint32, r *RowList) []uint32 {
	if r == nil {
		return dst
	}
	for x := range r.rows {
		b := r.bitRow(x)
		if b == nil {
			dst = m.AddAll(dst, r.rows[x])
			continue
		}
		for w, word := range b {
			word &^= m[w]
			m[w] |= word
			for base := uint32(w) << 6; word != 0; word &= word - 1 {
				dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
			}
		}
	}
	return dst
}
