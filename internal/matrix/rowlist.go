package matrix

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// RowList is a hypersparse Boolean matrix (GraphBLAS's hypersparse form,
// DCSR): the sorted ids of its non-empty rows and a row table (slots)
// whose slot k holds row ids[k], a list or a bitmap as in Bool. It has
// no n-slot row table, so building, scanning or multiplying one costs
// the rows it holds and the products they form, not the dimension. The
// fixpoint driver keeps every transient operand in this form (ΔT, ΔM, M
// and the products); the relations it grows stay Bool, whose rows the
// products read by index.
//
// A row a product gathers (MulAddRows) or a union merges (Union) takes
// the smaller form: a bitmap past listMax. A row copied out of a Bool
// (SelectRows, ListRows) is a list whatever its length; a product that
// reads a Bool's rows in place (ViewRows) keeps their form, and copies
// none.
//
// A RowList is read-only once built: nothing writes a row of either
// form after it is pushed. Lists built from one another (Restrict,
// Union) share rows. A nil *RowList is an empty matrix of unknown shape
// to NVals, Empty, Iterate and Pairs; every other method needs a list.
type RowList struct {
	nrows, ncols int
	ids          []uint32 // sorted ids of the non-empty rows
	slots
	nvals int
}

// Operand is a matrix the row-list kernels read: a *Bool, whose row i
// is found by index, a *RowList, whose rows are found by search, or a
// *RowView, a Bool's rows in a set, found by search and read in place.
type Operand interface {
	NRows() int
	NCols() int
	NVals() int
	// table returns the row table: slot x is row ids[x], or row x when
	// ids is nil, and entry x of s, or entry ids[x] when inPlace.
	table() (ids []uint32, s slots, inPlace bool)
}

func (m *Bool) table() ([]uint32, slots, bool) { return nil, m.slots, false }

func (r *RowList) table() ([]uint32, slots, bool) { return r.ids, r.slots, false }

// RowView is the rows of a Bool listed in a set, read where they lie:
// it copies no entry, and a bitmap row stays a bitmap. It reads the
// matrix as it stands when a product runs, NVals included, so rows the
// matrix gained after the view was made are in it.
type RowView struct {
	m   *Bool
	set *Vector
}

// ViewRows returns the rows of a listed in set, read in place.
func ViewRows(a *Bool, set *Vector) *RowView {
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: ViewRows vector size %d does not match rows %d", set.n, a.nrows))
	}
	return &RowView{a, set}
}

// NRows returns the number of rows of the viewed matrix.
func (v *RowView) NRows() int { return v.m.nrows }

// NCols returns the number of columns.
func (v *RowView) NCols() int { return v.m.ncols }

// NVals returns the number of entries the viewed rows hold now.
func (v *RowView) NVals() int {
	n := 0
	for _, i := range v.set.idx {
		n += v.m.rowLen(int(i))
	}
	return n
}

func (v *RowView) table() ([]uint32, slots, bool) { return v.set.idx, v.m.slots, true }

// NRows returns the number of rows of the matrix the list represents.
func (r *RowList) NRows() int { return r.nrows }

// NCols returns the number of columns.
func (r *RowList) NCols() int { return r.ncols }

// NVals returns the number of stored (true) entries; 0 for nil.
func (r *RowList) NVals() int {
	if r == nil {
		return 0
	}
	return r.nvals
}

// Empty reports whether the list holds no entry; true for nil.
func (r *RowList) Empty() bool { return r.NVals() == 0 }

// Row returns the sorted column indices of row i (nil when the row is
// empty). A list row is returned as the list holds it, a bitmap row
// decoded into a new slice; either way the slice must not be modified.
func (r *RowList) Row(i int) []uint32 {
	if i < 0 || i >= r.nrows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, r.nrows))
	}
	var buf []uint32
	if k, ok := slices.BinarySearch(r.ids, uint32(i)); ok {
		return r.cols(k, &buf)
	}
	return nil
}

// Has reports whether entry (i, j) is true.
func (r *RowList) Has(i, j int) bool {
	k, ok := slices.BinarySearch(r.ids, uint32(i))
	if !ok {
		return false
	}
	_, in := slices.BinarySearch(r.rows[k], uint32(j)) // nil for a bitmap row
	return in || hasBit(r.bitRow(k), uint32(j))
}

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false. A nil list calls it for none.
func (r *RowList) Iterate(fn func(i, j int) bool) {
	if r != nil {
		r.each(r.ids, fn)
	}
}

// Pairs returns all true entries (none for nil) as (row, col) pairs in
// row-major order.
func (r *RowList) Pairs() [][2]int { return pairs(r) }

// push appends row i, which must be non-empty and follow every row the
// list holds: the list row, or the bitmap b when it is non-nil, of n
// entries.
func (r *RowList) push(i uint32, row []uint32, b []uint64, n int) {
	if b != nil && r.bits == nil {
		r.bits = make([][]uint64, len(r.ids), cap(r.ids))
	}
	r.ids = append(r.ids, i)
	r.rows = append(r.rows, row)
	if r.bits != nil {
		r.bits = append(r.bits, b)
	}
	r.nvals += n
}

// pushSlot appends slot k of from, sharing its row.
func (r *RowList) pushSlot(from *RowList, k int) {
	if b := from.bitRow(k); b != nil {
		r.push(from.ids[k], nil, b, popcount(b))
		return
	}
	r.push(from.ids[k], from.rows[k], nil, len(from.rows[k]))
}

// SelectRows returns copies of the rows of a listed in set. The copies
// share one array, and none aliases a row of a, so later writes to a
// (Bool.Set grows a row in place) cannot reach the list. A bitmap row
// is decoded into that array.
func SelectRows(a *Bool, set *Vector) *RowList {
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: SelectRows vector size %d does not match rows %d", set.n, a.nrows))
	}
	return selectRows(a, set.idx, false)
}

// ListRows returns copies of every non-empty row of a, as SelectRows
// does for a set holding every row.
func ListRows(a *Bool) *RowList { return selectRows(a, nil, true) }

func selectRows(a *Bool, set []uint32, all bool) *RowList {
	n, id := len(set), func(x int) int { return int(set[x]) }
	if all {
		n, id = a.nrows, func(x int) int { return x }
	}
	out := &RowList{nrows: a.nrows, ncols: a.ncols}
	live, total := 0, 0
	for x := range n {
		if l := a.rowLen(id(x)); l > 0 {
			live++
			total += l
		}
	}
	if live == 0 {
		return out
	}
	cols := make([]uint32, 0, total)
	out.ids = make([]uint32, 0, live)
	out.rows = make([][]uint32, 0, live)
	for x := range n {
		i := id(x)
		lo := len(cols)
		if b := a.bitRow(i); b != nil {
			cols = appendBits(cols, b)
		} else {
			cols = append(cols, a.rows[i]...)
		}
		if len(cols) > lo {
			out.push(uint32(i), cols[lo:len(cols):len(cols)], nil, len(cols)-lo)
		}
	}
	return out
}

// Restrict returns the rows of r listed in set. It walks the shorter of
// the two lists and searches the longer, and shares r's rows, bitmaps
// too. Its tables are sized for the shorter list, which bounds its rows.
func (r *RowList) Restrict(set *Vector) *RowList {
	if set.n != r.nrows {
		panic(fmt.Sprintf("matrix: Restrict vector size %d does not match rows %d", set.n, r.nrows))
	}
	n := min(len(r.ids), len(set.idx))
	out := &RowList{nrows: r.nrows, ncols: r.ncols, ids: make([]uint32, 0, n), slots: slots{rows: make([][]uint32, 0, n)}}
	if len(r.ids) <= len(set.idx) {
		at := 0
		for k, i := range r.ids {
			if at = gallop(set.idx, at, i); at == len(set.idx) {
				break
			}
			if set.idx[at] == i {
				out.pushSlot(r, k)
			}
		}
		return out
	}
	at := 0
	for _, i := range set.idx {
		if at = gallop(r.ids, at, i); at == len(r.ids) {
			break
		}
		if r.ids[at] == i {
			out.pushSlot(r, at)
		}
	}
	return out
}

// Union returns a ∪ b. A row held by one side only is shared; a row held
// by both is merged into a new row in the smaller form (orRows), a
// bitmap when either side is one or the union is past the crossover.
// When one side is empty (or nil), the other is returned itself.
func Union(a, b *RowList) *RowList {
	if b.NVals() == 0 {
		return a
	}
	if a.NVals() == 0 {
		return b
	}
	if a.nrows != b.nrows || a.ncols != b.ncols {
		panic(fmt.Sprintf("matrix: Union shape mismatch %dx%d vs %dx%d", a.nrows, a.ncols, b.nrows, b.ncols))
	}
	n := len(a.ids) + len(b.ids)
	out := &RowList{nrows: a.nrows, ncols: a.ncols, ids: make([]uint32, 0, n), slots: slots{rows: make([][]uint32, 0, n)}}
	x, y := 0, 0
	for x < len(a.ids) || y < len(b.ids) {
		switch {
		case y == len(b.ids) || x < len(a.ids) && a.ids[x] < b.ids[y]:
			out.pushSlot(a, x)
			x++
		case x == len(a.ids) || b.ids[y] < a.ids[x]:
			out.pushSlot(b, y)
			y++
		default:
			row, words, n := orRows(a.rows[x], a.bitRow(x), b.rows[y], b.bitRow(y), a.ncols)
			out.push(a.ids[x], row, words, n)
			x++
			y++
		}
	}
	return out
}

// MulStats is what one MulAddRows call did besides the rows it added.
type MulStats struct {
	NNZ          int // the product's entries before the mask
	HelperBlocks int // row blocks a helper goroutine gathered
	PanelRows    int // rows of a a column panel gathered
}

// MulAddRows is the masked multiply-accumulate t<¬t> ∪= a × b: it adds
// to t the entries of the Boolean product that t lacks, and returns
// them, as a row list, with the product's entry count before the mask.
//
// It gathers each row of the product in an accumulator one of two ways.
// Row by row (Gustavson's push): row k of b is found by index in a *Bool
// and by search in a *RowList or *RowView, and ORed in a word at a time
// when it is a bitmap, an entry at a time when it is a list. By column
// panel (gatherPanel), when a holds bitmap rows, 64 of its rows average
// past the crossover and cost less so by count: the rows are transposed
// into a word per index k, ORed into a word per column for every entry
// of b's row k, so a row of b is read once a panel. Either way it then
// clears what row i of t holds — word by word for a bitmap row, bit by
// bit for a list row — and emits only what is left, in the smaller row
// form: past the crossover, the accumulator's touched words copied into
// a bitmap, not extracted or sorted. So the product costs a's rows and
// the products they form, what t already holds is never extracted,
// sorted or merged, and a bitmap row of the result is ORed a word at a
// time when it is a right operand in its turn.
//
// The new rows are pushed into the accumulator's room, pooled row
// tables, and copied out once every row is gathered, into one list
// whose tables are exactly its length and that nothing else refers to.
// Only then are they folded into t: a bitmap row of t takes them in
// place, a word at a time from a bitmap row; a list row is replaced by
// the union (orRows). So the product is a × b as the operands stood on
// entry, and t may be a or b itself, or the matrix a *RowView reads.
// t never aliases the returned rows.
//
// The rows of a are taken in blocks of ctxCheckRows slots. When there is
// more than one block and more than one processor (runtime.GOMAXPROCS),
// the calling goroutine and up to GOMAXPROCS-1 helpers claim blocks in
// order from a shared counter and gather them side by side, each into
// its own accumulator and room, recording the range of its room each
// block filled; the ranges are copied out in block order, and only then
// are the rows folded into t and the accumulators pooled, on the caller.
// So the result, the count and t are the same as when one goroutine
// gathers every block, and the caller waits only for blocks someone
// claimed.
//
// Each claim polls ctx. Once the context is done, blocks claimed from
// then on are skipped; the blocks gathered so far are folded into t and
// returned with ctx.Err(): each row is a true row of the product.
func MulAddRows(ctx context.Context, t *Bool, a, b Operand) (added *RowList, st MulStats, err error) {
	if a.NCols() != b.NRows() || t.nrows != a.NRows() || t.ncols != b.NCols() {
		panic(fmt.Sprintf("matrix: MulAddRows dimension mismatch %dx%d += %dx%d * %dx%d",
			t.nrows, t.ncols, a.NRows(), a.NCols(), b.NRows(), b.NCols()))
	}
	na := a.NVals()
	if na == 0 || b.NVals() == 0 {
		return &RowList{nrows: t.nrows, ncols: t.ncols}, st, ctx.Err()
	}
	p := product{t: t, inner: a.NCols()}
	p.aIDs, p.a, p.aIn = a.table()
	p.bIDs, p.b, p.bIn = b.table()
	if p.n = len(p.a.rows); p.aIDs != nil {
		p.n = len(p.aIDs)
	}
	var tab *[]int32
	if p.bIDs != nil && 2*len(p.bIDs) < na {
		tab = getSlotTable(b.NRows(), p.bIDs)
		p.bSlots = *tab
	}
	nblocks, workers := (p.n+ctxCheckRows-1)/ctxCheckRows, 1
	if nblocks > 1 {
		workers = min(nblocks, runtime.GOMAXPROCS(0))
	}
	var one [1]block
	var oneAcc [1]*accumulator
	blocks, accs := one[:], oneAcc[:]
	if workers > 1 {
		blocks, accs = p.gatherParallel(ctx, nblocks, workers)
	} else {
		accs[0] = getAccumulator(t.ncols)
		for lo := 0; lo < p.n; lo += ctxCheckRows {
			if one[0].err = ctx.Err(); one[0].err != nil {
				break
			}
			p.gatherBlock(lo, accs[0], &one[0])
		}
	}
	added, st, err = join(t.nrows, t.ncols, blocks)
	for _, acc := range accs {
		if acc != nil {
			putAccumulator(acc)
		}
	}
	for k, i := range added.ids {
		t.orInto(int(i), added.rows[k], added.bitRow(k))
	}
	if tab != nil {
		putSlotTable(tab, p.bIDs)
	}
	return added, st, err
}

// product holds one MulAddRows call's row tables, a's width and the
// mask t. Gathering only reads them.
type product struct {
	t          *Bool
	inner      int
	n          int // a's slots
	aIDs, bIDs []uint32
	a, b       slots
	aIn, bIn   bool    // slot x is entry ids[x] of the table (a *RowView)
	bSlots     []int32 // when non-nil, 1 + b's slot of row k at k, 0 for none
}

// aAt returns the entry of a's table that holds slot x.
func (p *product) aAt(x int) int {
	if p.aIn {
		return int(p.aIDs[x])
	}
	return x
}

// search returns the slot of row k of b without a slot table, or -1
// when b has no row k: a gallop on from *at, where the caller's
// ascending ks leave it.
func (p *product) search(k uint32, at *int) int {
	if *at = gallop(p.bIDs, *at, k); *at == len(p.bIDs) || p.bIDs[*at] != k {
		return -1
	}
	return *at
}

// slotPool recycles the row id→slot tables of row-list right operands.
// A pooled table is all zero. MulAddRows builds one when a's entries,
// each a search without it, outnumber twice b's rows, which it costs to
// fill and to clear; it is read-only while the product gathers, helpers
// included, and never outlives the call.
var slotPool = sync.Pool{New: func() any { return new([]int32) }}

// getSlotTable returns a table of n entries holding 1+x at ids[x] and 0
// elsewhere.
func getSlotTable(n int, ids []uint32) *[]int32 {
	tab := slotPool.Get().(*[]int32)
	if cap(*tab) < n {
		*tab = make([]int32, n)
	}
	*tab = (*tab)[:n]
	for x, id := range ids {
		(*tab)[id] = int32(x + 1)
	}
	return tab
}

// putSlotTable clears the entries getSlotTable set and pools tab.
func putSlotTable(tab *[]int32, ids []uint32) {
	for _, id := range ids {
		(*tab)[id] = 0
	}
	slotPool.Put(tab)
}

// gather pushes into acc's room the rows of a × b that t lacks for the
// block of a's slots starting at lo, and adds to st. Each run of
// panelSize slots is gathered by a column panel when gatherPanel takes
// it, by push otherwise; either way each row then goes through the same
// tail: its count before the mask, the clear of what row i of t holds,
// and emit.
func (p *product) gather(lo int, acc *accumulator, st *MulStats) {
	hi := min(lo+ctxCheckRows, p.n)
	for x0 := lo; x0 < hi; x0 += panelSize {
		end := min(x0+panelSize, hi)
		panel := p.a.bits != nil && p.gatherPanel(x0, end, acc, st)
		for x := x0; x < end; x++ {
			i := uint32(x)
			if p.aIDs != nil {
				i = p.aIDs[x]
			}
			if panel {
				acc.takeRow(x - x0)
			} else {
				ra := p.a.cols(p.aAt(x), &acc.buf)
				if len(ra) == 0 {
					continue
				}
				acc.reset()
				at := 0 // ra is sorted, so its rows of b are met in order
				for _, k := range ra {
					y := int(k)
					if p.bSlots != nil {
						y = int(p.bSlots[k]) - 1
					} else if p.bIDs != nil {
						y = p.search(k, &at)
					}
					if y < 0 {
						continue
					} else if p.bIn { // a view's row k is entry k
						y = int(k)
					}
					if sb := p.b.bitRow(y); sb != nil {
						acc.orBits(sb)
					} else {
						acc.orRow(p.b.rows[y])
					}
				}
			}
			if len(acc.touched) == 0 {
				continue
			}
			st.NNZ += acc.count()
			acc.clearRow(p.t, int(i))
			if row, b, n := acc.emit(); n > 0 {
				acc.room.push(i, row, b, n)
			}
		}
	}
}

// room is where a product gathers its rows before they are copied out:
// pooled tables of a slot per row, whose bits run beside rows (nil for
// a list row), so the rows of a block are one range of slots.
type room struct {
	ids []uint32
	slots
	nvals int // entries of every slot
}

// push appends row i, the list row or the bitmap b when it is non-nil,
// of n entries.
func (r *room) push(i uint32, row []uint32, b []uint64, n int) {
	r.ids = append(r.ids, i)
	r.rows = append(r.rows, row)
	r.bits = append(r.bits, b)
	r.nvals += n
}

// reset empties the room and lets go of its rows.
func (r *room) reset() {
	clear(r.rows)
	clear(r.bits)
	r.ids, r.rows, r.bits = r.ids[:0], r.rows[:0], r.bits[:0]
	r.nvals = 0
}

// block is what gathering blocks of a's slots produced: a range of one
// room, its count, panel rows and error.
type block struct {
	room   *room // nil when nothing was gathered
	lo, hi int   // the room's slots lo..hi-1
	nvals  int   // their entries
	st     MulStats
	err    error // the context's error when a block was skipped
	helped bool  // gathered by a helper
}

// gatherBlock gathers the block at lo into acc's room and adds it to
// blk, whose range it starts or extends.
func (p *product) gatherBlock(lo int, acc *accumulator, blk *block) {
	r := &acc.room
	if blk.room == nil {
		blk.room, blk.lo = r, len(r.ids)
	}
	nvals := r.nvals
	p.gather(lo, acc, &blk.st)
	blk.hi, blk.nvals = len(r.ids), blk.nvals+r.nvals-nvals
}

// gatherParallel gathers the nblocks blocks of a × b \ t on the calling
// goroutine and workers-1 helpers, each into its own accumulator's room,
// and returns the blocks and the accumulators, which the caller pools
// once it has joined the blocks. A helper touches nothing but the claim
// counter until it claims a block, nor after its last block is counted
// done: the wait group counts blocks, not helpers, so a helper that
// starts after the last claim is never waited for.
func (p product) gatherParallel(ctx context.Context, nblocks, workers int) ([]block, []*accumulator) {
	blocks, accs := make([]block, nblocks), make([]*accumulator, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nblocks)
	work := func(w int) {
		for x := int(next.Add(1) - 1); x < nblocks; x = int(next.Add(1) - 1) {
			if accs[w] == nil {
				accs[w] = getAccumulator(p.t.ncols)
			}
			blk := &blocks[x]
			if blk.err = ctx.Err(); blk.err == nil {
				p.gatherBlock(x*ctxCheckRows, accs[w], blk)
				blk.helped = w > 0
			}
			wg.Done()
		}
	}
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
	return blocks, accs
}

// join copies the blocks' rows out of their rooms, in block order, into
// one list whose tables are exactly its length, bits only when a row is
// a bitmap, and sums their counts; the error is the first block's that
// has one.
func join(nrows, ncols int, blocks []block) (added *RowList, st MulStats, err error) {
	added = &RowList{nrows: nrows, ncols: ncols}
	total, anyBits := 0, false
	for x := range blocks {
		blk := &blocks[x]
		total, added.nvals = total+blk.hi-blk.lo, added.nvals+blk.nvals
		if !anyBits && blk.hi > blk.lo {
			anyBits = slices.ContainsFunc(blk.room.bits[blk.lo:blk.hi], func(b []uint64) bool { return b != nil })
		}
		st.NNZ += blk.st.NNZ
		st.PanelRows += blk.st.PanelRows
		if blk.helped {
			st.HelperBlocks++
		}
		if err == nil {
			err = blk.err
		}
	}
	if total == 0 {
		return added, st, err
	}
	added.ids, added.rows = make([]uint32, 0, total), make([][]uint32, 0, total)
	if anyBits {
		added.bits = make([][]uint64, 0, total)
	}
	for x := range blocks {
		blk := &blocks[x]
		if blk.hi == blk.lo {
			continue
		}
		r := blk.room
		added.ids = append(added.ids, r.ids[blk.lo:blk.hi]...)
		added.rows = append(added.rows, r.rows[blk.lo:blk.hi]...)
		if added.bits != nil {
			added.bits = append(added.bits, r.bits[blk.lo:blk.hi]...)
		}
	}
	return added, st, err
}

// gallop returns the index of the first element of the sorted s[at:]
// that is >= c (len(s) if none). It probes at, at+1, at+2, at+4, ...
// before a binary search, so a call costs the log of the distance it
// moves: a walk of m ascending values through s costs O(m log(len(s)/m)),
// no more than a merge, and the shorter side's length when s is long.
func gallop(s []uint32, at int, c uint32) int {
	if at >= len(s) || s[at] >= c {
		return at
	}
	bound := 1
	for at+bound < len(s) && s[at+bound] < c {
		bound <<= 1
	}
	// s[at+bound/2] < c, and s[at+bound] >= c unless it is past the end.
	lo, hi := at+bound/2+1, min(at+bound, len(s))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
