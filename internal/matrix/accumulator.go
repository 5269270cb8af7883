package matrix

import (
	"math/bits"
	"slices"
	"sync"
)

// accumulator gathers the union of sparse rows during multiplication.
// It keeps a bitset over columns plus the list of 64-bit words touched in
// the current round, so both accumulation and extraction cost time
// proportional to the touched region, not the full matrix width.
type accumulator struct {
	words   []uint64
	mark    []uint32 // epoch stamp per word; lazily resets words
	touched []uint32 // word indices dirtied this round
	epoch   uint32
}

// accPool recycles accumulators across multiplications. A fixpoint
// round allocates one accumulator per kernel call; the backing bitsets
// are by far the largest per-round allocation, so reusing them keeps the
// steady-state fixpoint loop allocation-free apart from the result rows
// themselves.
var accPool = sync.Pool{New: func() any { return &accumulator{} }}

// getAccumulator returns an accumulator sized for ncols columns, reusing
// a pooled one when its backing arrays are large enough. Callers must
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
// arrays when their capacity suffices. The epoch survives reuse: stale
// stamps from earlier rounds are always strictly older than the current
// epoch, so the lazy word-reset logic stays sound without zeroing.
func (a *accumulator) resize(ncols int) {
	nwords := (ncols + 63) / 64
	a.touched = a.touched[:0]
	if cap(a.words) < nwords {
		a.words = make([]uint64, nwords)
		a.mark = make([]uint32, nwords)
		if a.epoch == 0 {
			a.epoch = 1
		}
		return
	}
	old := len(a.mark)
	a.words = a.words[:nwords]
	a.mark = a.mark[:nwords]
	// Words re-exposed by growing within capacity carry stamps from a
	// prior, wider use. Those stamps predate the current epoch — except
	// across an epoch wrap, whose explicit clear in reset() only covers
	// the then-visible region — so clear them defensively.
	for i := old; i < nwords; i++ {
		a.mark[i] = 0
	}
}

// reset prepares the accumulator for a new row.
func (a *accumulator) reset() {
	a.touched = a.touched[:0]
	a.epoch++
	if a.epoch == 0 { // stamp wrapped: clear marks explicitly
		for i := range a.mark {
			a.mark[i] = 0
		}
		a.epoch = 1
	}
}

// orRow ORs a sorted column-index row into the accumulator.
func (a *accumulator) orRow(row []uint32) {
	for _, c := range row {
		w := c >> 6
		if a.mark[w] != a.epoch {
			a.mark[w] = a.epoch
			a.words[w] = 0
			a.touched = append(a.touched, w)
		}
		a.words[w] |= 1 << (c & 63)
	}
}

// contains reports whether column c is set in the current round.
func (a *accumulator) contains(c uint32) bool {
	w := c >> 6
	return a.mark[w] == a.epoch && a.words[w]&(1<<(c&63)) != 0
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

// count returns the number of accumulated columns without extracting.
func (a *accumulator) count() int {
	n := 0
	for _, w := range a.touched {
		n += bits.OnesCount64(a.words[w])
	}
	return n
}
