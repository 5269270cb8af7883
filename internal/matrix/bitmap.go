package matrix

import "math/bits"

// The helpers below read bitmap rows: word w of a row holds columns
// 64w..64w+63, bit c&63 for column c. A bitmap may be shorter than its
// matrix's word count; the missing words read as zero.

// hasBit reports whether column c is set in b.
func hasBit(b []uint64, c uint32) bool {
	w := int(c >> 6)
	return w < len(b) && b[w]&(1<<(c&63)) != 0
}

// popcount returns the number of columns set in b.
func popcount(b []uint64) int {
	n := 0
	for _, word := range b {
		n += bits.OnesCount64(word)
	}
	return n
}

// appendBits appends the columns set in b, ascending, to dst.
func appendBits(dst []uint32, b []uint64) []uint32 {
	for w, word := range b {
		base := uint32(w) << 6
		for word != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// wordsEqual reports whether two bitmaps set the same columns.
func wordsEqual(a, b []uint64) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for w, word := range a {
		if b[w] != word {
			return false
		}
	}
	for _, word := range b[len(a):] {
		if word != 0 {
			return false
		}
	}
	return true
}

// listIsBits reports whether the sorted list l and the bitmap b hold the
// same columns.
func listIsBits(l []uint32, b []uint64) bool {
	if len(l) != popcount(b) {
		return false
	}
	for _, c := range l {
		if !hasBit(b, c) {
			return false
		}
	}
	return true
}
