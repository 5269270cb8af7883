package matrix

import (
	"math/bits"
	"slices"
)

// panelSize is the most slots of a a column panel gathers, a bit each.
const panelSize = 64

// panelRead is a row of b a panel reads.
type panelRead struct {
	y int    // b's slot
	w uint64 // colw at its index
}

// growPanel sizes the panel scratch for p; grown, all-zero stays so.
func (a *accumulator) growPanel(p *product) {
	nk, nj := 64*nwords(p.inner), 64*nwords(p.t.ncols)
	a.colw = slices.Grow(a.colw[:0], nk)[:nk]
	a.ct = slices.Grow(a.ct[:0], nj)[:nj]
}

// gatherPanel gathers the product rows of a's slots lo..hi-1, at most
// panelSize, as one column panel into ct, for takeRow, and adds them to
// st, when the rows average past the crossover of a's width and the
// panel costs less than push by count; it reports whether it did. Push
// costs the rows of b the panel's rows read, in entries for a list row
// and words for a bitmap row. The panel costs the entries of the rows
// of b it reads and of its list rows, set a bit at a time, and five
// passes over colw and ct: a scan, the words copied in or read out, and
// a transpose, whose 192 swaps of word pairs a block count three a word.
func (p *product) gatherPanel(lo, hi int, acc *accumulator, st *MulStats) bool {
	live, entries, cost := 0, 0, 5*64*(nwords(p.inner)+nwords(p.t.ncols))
	for x := lo; x < hi; x++ {
		n := p.a.rowLen(p.aAt(x))
		if p.a.bitRow(p.aAt(x)) == nil {
			cost += n
		}
		if n > 0 {
			live, entries = live+1, entries+n
		}
	}
	if entries <= live*listMax(p.inner) {
		return false
	}
	// Word w of the panel's row r goes to word r of colw's block w, a
	// bitmap row a word at a time, a list row a bit at a time; then the
	// blocks are transposed.
	acc.growPanel(p)
	for x := lo; x < hi; x++ {
		e := p.aAt(x)
		for w, word := range p.a.bitRow(e) {
			acc.colw[w<<6+x-lo] = word
		}
		for _, k := range p.a.rows[e] {
			acc.colw[int(k&^63)+x-lo] |= 1 << (k & 63)
		}
	}
	transposeBlocks(acc.colw)
	// Count push, list the rows of b the panel reads, and clear colw.
	push, at := 0, 0
	acc.reads = acc.reads[:0]
	for k, w := range acc.colw {
		if w == 0 {
			continue
		}
		acc.colw[k] = 0
		y := k
		if p.bSlots != nil {
			y = int(p.bSlots[k]) - 1
		} else if p.bIDs != nil {
			y = p.search(uint32(k), &at)
		}
		if y < 0 {
			continue
		} else if p.bIn {
			y = k
		}
		n, words := len(p.b.rows[y]), len(p.b.rows[y])
		if sb := p.b.bitRow(y); sb != nil {
			n, words = popcount(sb), len(sb)
		}
		if n > 0 {
			cost += n
			push += bits.OnesCount64(w) * words
			acc.reads = append(acc.reads, panelRead{y, w})
		}
	}
	if cost >= push {
		return false
	}
	for _, r := range acc.reads {
		for _, j := range p.b.cols(r.y, &acc.buf) {
			acc.ct[j] |= r.w
		}
	}
	transposeBlocks(acc.ct)
	st.PanelRows += live
	return true
}

// takeRow replaces the accumulator's row with row r of the panel
// gatherPanel left in ct, whose blocks are transposed, so word r of
// block w is the row's word w, and clears those words of ct.
func (a *accumulator) takeRow(r int) {
	a.reset()
	for w := range len(a.words) {
		if word := a.ct[w<<6+r]; word != 0 {
			a.ct[w<<6+r] = 0
			a.words[w] = word
			a.touched = append(a.touched, uint32(w))
		}
	}
}

// transposeBlocks transposes each non-zero 64-word block of s in place.
func transposeBlocks(s []uint64) {
	for lo := 0; lo < len(s); lo += 64 {
		if blk := (*[64]uint64)(s[lo : lo+64]); *blk != ([64]uint64{}) {
			transpose64(blk)
		}
	}
}

// transpose64 transposes the 64×64 bit matrix blk in place: bit c of
// word r moves to bit r of word c. Each of its six rounds swaps the
// off-diagonal blocks of every 2j×2j block, j = 32, 16, ..., 1.
func transpose64(blk *[64]uint64) {
	m := uint64(0x00000000ffffffff) // the low j bits of every 2j
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (blk[k]>>j ^ blk[k+j]) & m
			blk[k+j] ^= t
			blk[k] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}
