package matrix

import (
	"math/bits"
	"slices"
	"sync"
)

// accumulator gathers the union of sparse rows during multiplication.
// It keeps a bitset over columns plus the list of 64-bit words touched in
// the current round, so both accumulation and extraction cost time
// proportional to the touched region, not the full matrix width. Every
// word outside the touched list is zero: reset clears the touched words,
// so a word is known to be new to the round exactly when it reads zero.
type accumulator struct {
	words   []uint64
	touched []uint32 // word indices dirtied this round
}

// accPool recycles accumulators across multiplications. A fixpoint
// round allocates one accumulator per kernel call; the backing bitsets
// are by far the largest per-round allocation, so reusing them keeps the
// steady-state fixpoint loop allocation-free apart from the result rows
// themselves.
var accPool = sync.Pool{New: func() any { return &accumulator{} }}

// getAccumulator returns an accumulator sized for ncols columns, reusing
// a pooled one when its backing array is large enough. Callers must
// hand it back with putAccumulator when the multiplication finishes.
func getAccumulator(ncols int) *accumulator {
	a := accPool.Get().(*accumulator)
	a.resize(ncols)
	return a
}

// putAccumulator recycles a for later getAccumulator calls. The
// accumulator must no longer be used after being put.
func putAccumulator(a *accumulator) {
	accPool.Put(a)
}

// resize adapts the accumulator to a column count, keeping the backing
// array when its capacity suffices. It clears the previous use's words
// first, so the whole array, visible or not, stays zero.
func (a *accumulator) resize(ncols int) {
	a.reset()
	nwords := (ncols + 63) / 64
	if cap(a.words) < nwords {
		a.words = make([]uint64, nwords)
		return
	}
	a.words = a.words[:nwords]
}

// reset prepares the accumulator for a new row.
func (a *accumulator) reset() {
	for _, w := range a.touched {
		a.words[w] = 0
	}
	a.touched = a.touched[:0]
}

// orRow ORs a sorted column-index row into the accumulator.
func (a *accumulator) orRow(row []uint32) {
	words, touched := a.words, a.touched
	for _, c := range row {
		w := c >> 6
		old := words[w]
		if old == 0 {
			touched = append(touched, w)
		}
		words[w] = old | 1<<(c&63)
	}
	a.touched = touched
}

// orBits ORs a bitmap row into the accumulator a word at a time.
func (a *accumulator) orBits(b []uint64) {
	for w, word := range b {
		if word == 0 {
			continue
		}
		old := a.words[w]
		if old == 0 {
			a.touched = append(a.touched, uint32(w))
		}
		a.words[w] = old | word
	}
}

// orBoolRow ORs row k of m, a list or a bitmap, into the accumulator.
func (a *accumulator) orBoolRow(m *Bool, k int) {
	if b := m.bitRow(k); b != nil {
		a.orBits(b)
	} else {
		a.orRow(m.rows[k])
	}
}

// clearRow removes the columns of row i of m from the accumulator: a
// word at a time for a bitmap row, a bit at a time for a list row. Both
// cost the smaller of the row and the touched words, since a list row
// is never longer than two entries a word.
func (a *accumulator) clearRow(m *Bool, i int) {
	if b := m.bitRow(i); b != nil {
		for _, w := range a.touched {
			if int(w) < len(b) {
				a.words[w] &^= b[w]
			}
		}
		return
	}
	for _, c := range m.rows[i] {
		a.words[c>>6] &^= 1 << (c & 63)
	}
}

// witness files k under Key(i, j) in wit for every column j of the list
// rb or the bitmap sb that the current round does not hold yet.
func (a *accumulator) witness(wit map[uint64]uint32, i, k uint32, rb []uint32, sb []uint64) {
	for _, j := range rb {
		if !a.contains(j) {
			wit[Key(int(i), int(j))] = k
		}
	}
	for w, word := range sb {
		for fresh := word &^ a.words[w]; fresh != 0; fresh &= fresh - 1 {
			wit[Key(int(i), w<<6+bits.TrailingZeros64(fresh))] = k
		}
	}
}

// contains reports whether column c is set in the current round.
func (a *accumulator) contains(c uint32) bool {
	return a.words[c>>6]&(1<<(c&63)) != 0
}

// extract appends the accumulated columns, sorted, to dst and returns it.
func (a *accumulator) extract(dst []uint32) []uint32 {
	if len(a.touched) == 0 {
		return dst
	}
	slices.Sort(a.touched)
	for _, w := range a.touched {
		word := a.words[w]
		base := w << 6
		for word != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// install makes the accumulated columns row i of m, which is empty, in
// the smaller of the two row forms.
func (a *accumulator) install(m *Bool, i int) {
	n := a.count()
	switch {
	case n == 0:
		return
	case n > m.listMax():
		b := make([]uint64, nwords(m.ncols))
		for _, w := range a.touched {
			b[w] = a.words[w]
		}
		m.setBits(i, b)
	default:
		m.rows[i] = a.extract(make([]uint32, 0, n))
	}
	m.nvals += n
}

// count returns the number of accumulated columns without extracting.
func (a *accumulator) count() int {
	n := 0
	for _, w := range a.touched {
		n += bits.OnesCount64(a.words[w])
	}
	return n
}
