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
// It also holds a decoded row, the column panel's scratch, whose colw
// and ct are 64-word blocks, all zero between panels, the room a
// product gathers its rows in, and the chunk emit cuts bitmap rows from.
type accumulator struct {
	ncols   int // the width resize sized it for
	words   []uint64
	touched []uint32    // word indices dirtied this round
	buf     []uint32    // an operand's bitmap row, decoded
	colw    []uint64    // colw[k]: bit r set when the panel's row r holds k
	ct      []uint64    // ct[j]: bit r set when the panel's product row r holds j
	reads   []panelRead // the rows of b the panel reads
	room    room
	chunk   []uint64 // zero words not yet cut into a row
}

// accPool recycles accumulators across multiplications. A fixpoint
// round allocates one accumulator per kernel call; the backing bitsets
// and the room are by far the largest per-round allocations, so reusing
// them keeps the steady-state fixpoint loop allocation-free apart from
// the result rows themselves and the one table they are copied out to.
var accPool = sync.Pool{New: func() any { return &accumulator{} }}

// roomKeepMax is the most rows (3.25 MiB of tables) a room may hold and
// be pooled with its accumulator; a longer one is dropped rather than
// held by the pool.
const roomKeepMax = 1 << 16

// chunkWords is the most words emit allocates at once to cut bitmap
// rows from (16 KiB), unless one row is longer.
const chunkWords = 1 << 11

// getAccumulator returns an accumulator sized for ncols columns, reusing
// a pooled one when its backing array is large enough. Callers must
// hand it back with putAccumulator when the multiplication finishes.
func getAccumulator(ncols int) *accumulator {
	a := accPool.Get().(*accumulator)
	a.resize(ncols)
	return a
}

// putAccumulator recycles a for later getAccumulator calls. The
// accumulator must no longer be used after being put, nor its room read:
// the room is emptied, and dropped past roomKeepMax, so the pool pins no
// row a product returned.
func putAccumulator(a *accumulator) {
	if cap(a.room.ids) > roomKeepMax {
		a.room = room{}
	} else {
		a.room.reset()
	}
	accPool.Put(a)
}

// resize adapts the accumulator to a column count, keeping the backing
// array when its capacity suffices. It clears the previous use's words
// first, so the whole array, visible or not, stays zero.
func (a *accumulator) resize(ncols int) {
	a.reset()
	a.ncols = ncols
	if n := nwords(ncols); cap(a.words) < n {
		a.words = make([]uint64, n)
	} else {
		a.words = a.words[:n]
	}
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

// orSlot ORs slot x of s, a list or a bitmap, into the accumulator.
func (a *accumulator) orSlot(s *slots, x int) {
	if b := s.bitRow(x); b != nil {
		a.orBits(b)
	} else {
		a.orRow(s.rows[x])
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
	if row, b, n := a.emit(); n > 0 {
		m.setRow(i, row, b, n)
	}
}

// emit returns the n accumulated columns as a new row in the smaller of
// the two row forms for the accumulator's width: a sorted list, or, past
// the crossover, a bitmap copied from the touched words, which are
// neither extracted nor sorted. A bitmap is cut from the accumulator's
// chunk with its capacity cut to its length, so no row grows into the
// next. With nothing accumulated, it returns n = 0 and allocates
// nothing.
func (a *accumulator) emit() (row []uint32, b []uint64, n int) {
	switch n = a.count(); {
	case n == 0:
		return nil, nil, 0
	case n > listMax(a.ncols):
		nw := len(a.words)
		if len(a.chunk) < nw {
			a.chunk = make([]uint64, max(nw, chunkWords))
		}
		b, a.chunk = a.chunk[:nw:nw], a.chunk[nw:]
		for _, w := range a.touched {
			b[w] = a.words[w]
		}
		return nil, b, n
	}
	return a.extract(make([]uint32, 0, n)), nil, n
}

// count returns the number of accumulated columns without extracting.
func (a *accumulator) count() int {
	n := 0
	for _, w := range a.touched {
		n += bits.OnesCount64(a.words[w])
	}
	return n
}
