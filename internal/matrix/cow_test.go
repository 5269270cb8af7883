package matrix

import (
	"context"
	"math/rand"
	"testing"
)

// snapshotRows deep-copies the row contents of m for later
// bit-for-bit comparison, independent of m's own storage.
func snapshotRows(m *Bool) [][]uint32 {
	out := make([][]uint32, m.NRows())
	for i := range out {
		out[i] = append([]uint32(nil), m.Row(i)...)
	}
	return out
}

// mulAdd adds pairs to m through the fixpoint's kernel, as m ∪= I × P
// for the matrix P of the pairs.
func mulAdd(m *Bool, pairs [][2]int) {
	id := NewBool(m.NRows(), m.NRows())
	for i := range m.NRows() {
		id.Set(i, i)
	}
	if _, _, err := MulAddRows(context.Background(), m, ListRows(id), NewBoolFromPairs(m.NRows(), m.NCols(), pairs)); err != nil {
		panic(err)
	}
}

func rowsEqual(t *testing.T, m *Bool, want [][]uint32, label string) {
	t.Helper()
	if m.NRows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, m.NRows(), len(want))
	}
	for i, w := range want {
		got := m.Row(i)
		if len(got) != len(w) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got, w)
			}
		}
	}
}

// TestCloneCOWChildMutationDoesNotAliasParent is the aliasing
// regression test for copy-on-write snapshots: every mutation path on
// a child clone must leave the parent's rows bit-for-bit unchanged.
// Set's in-place insert (append + copy shift) is the historical
// hazard — on a shared backing array it would shift the parent's
// elements too.
func TestCloneCOWChildMutationDoesNotAliasParent(t *testing.T) {
	build := func() *Bool {
		return NewBoolFromPairs(6, 8, [][2]int{
			{0, 1}, {0, 3}, {0, 5}, {1, 0}, {2, 2}, {2, 4}, {4, 7}, {5, 0}, {5, 1}, {5, 2},
		})
	}
	mutations := []struct {
		name string
		run  func(c *Bool)
	}{
		{"Set-new-entry", func(c *Bool) { c.Set(0, 2) }},
		{"Set-shifting-entry", func(c *Bool) { c.Set(5, 0); c.Set(5, 3) }},
		{"AddInPlace", func(c *Bool) {
			AddInPlace(c, NewBoolFromPairs(6, 8, [][2]int{{0, 0}, {0, 4}, {3, 3}}))
		}},
		{"MulAddRows", func(c *Bool) {
			mulAdd(c, [][2]int{{0, 2}, {5, 7}})
		}},
		{"Resize-then-Set", func(c *Bool) { c.Resize(8, 8); c.Set(7, 7); c.Set(0, 0) }},
	}
	for _, mut := range mutations {
		parent := build()
		want := snapshotRows(parent)
		child := parent.CloneCOW()
		mut.run(child)
		rowsEqual(t, parent, want, mut.name+": parent after child mutation")
		if err := parent.validate(); err != nil {
			t.Fatalf("%s: parent invariants: %v", mut.name, err)
		}
		if err := child.validate(); err != nil {
			t.Fatalf("%s: child invariants: %v", mut.name, err)
		}
	}
}

// TestCloneCOWParentMutationDoesNotAliasChild checks the other
// direction: the clone is a stable snapshot even while the original
// keeps mutating.
func TestCloneCOWParentMutationDoesNotAliasChild(t *testing.T) {
	parent := NewBoolFromPairs(4, 4, [][2]int{{0, 1}, {1, 2}, {3, 0}, {3, 3}})
	child := parent.CloneCOW()
	want := snapshotRows(child)
	parent.Set(0, 0)
	parent.Set(3, 1)
	mulAdd(parent, [][2]int{{1, 0}, {2, 3}})
	AddInPlace(parent, NewBoolFromPairs(4, 4, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}}))
	rowsEqual(t, child, want, "child after parent mutation")
	if err := child.validate(); err != nil {
		t.Fatalf("child invariants: %v", err)
	}
	if err := parent.validate(); err != nil {
		t.Fatalf("parent invariants: %v", err)
	}
}

// TestCloneCOWChain exercises a chain of versions (clone of clone),
// the shape the epoch-versioned store produces, under randomized
// mutation, checking every retained snapshot stays frozen.
func TestCloneCOWChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := NewBool(10, 10)
	type gen struct {
		m    *Bool
		want [][]uint32
	}
	var history []gen
	for v := 0; v < 20; v++ {
		history = append(history, gen{cur, snapshotRows(cur)})
		next := cur.CloneCOW()
		for k := 0; k < 5; k++ {
			next.Set(rng.Intn(10), rng.Intn(10))
		}
		if v%3 == 0 {
			mulAdd(next, [][2]int{{rng.Intn(10), rng.Intn(10)}})
		}
		cur = next
	}
	for v, h := range history {
		rowsEqual(t, h.m, h.want, "version "+string(rune('0'+v%10)))
		if err := h.m.validate(); err != nil {
			t.Fatalf("version %d invariants: %v", v, err)
		}
	}
}

// TestCloneCOWSemantics: the clone must read back exactly as a deep
// clone would, before and after divergent mutation.
func TestCloneCOWSemantics(t *testing.T) {
	parent := NewBoolFromPairs(5, 5, [][2]int{{0, 0}, {1, 3}, {2, 1}, {4, 4}})
	child := parent.CloneCOW()
	if !child.Equal(parent) {
		t.Fatalf("fresh COW clone differs from parent")
	}
	child.Set(1, 1)
	parent.Set(2, 2)
	if child.Get(2, 2) {
		t.Fatalf("parent mutation leaked into child")
	}
	if parent.Get(1, 1) {
		t.Fatalf("child mutation leaked into parent")
	}
	if got, want := child.NVals(), 5; got != want {
		t.Fatalf("child nvals = %d, want %d", got, want)
	}
	if got, want := parent.NVals(), 5; got != want {
		t.Fatalf("parent nvals = %d, want %d", got, want)
	}
}

// TestCloneFrozenLeavesSourceUntouched: CloneFrozen is the
// snapshot-publication clone — it must not write the source at all,
// not even the shared bitmap, because the source is a published
// snapshot that concurrent readers access with plain loads. (CloneCOW
// deliberately writes both bitmaps; that is its contract for the
// both-sides-mutable case, which the contrast check pins down.)
func TestCloneFrozenLeavesSourceUntouched(t *testing.T) {
	m := NewBoolFromPairs(4, 6, [][2]int{{0, 1}, {0, 3}, {2, 2}, {3, 5}})
	want := snapshotRows(m)

	c := m.CloneFrozen()
	if m.shared != nil {
		t.Fatalf("CloneFrozen wrote the source's shared bitmap: %v", m.shared)
	}

	// Contrast: CloneCOW still marks the source shared.
	m2 := NewBoolFromPairs(2, 2, [][2]int{{0, 1}})
	m2.CloneCOW()
	if m2.shared == nil {
		t.Fatal("CloneCOW no longer marks the source shared — its contract changed")
	}

	// Every clone mutation path leaves the frozen source bit-for-bit
	// unchanged (the aliased rows are copied on first write).
	c.Set(0, 2)
	c.Set(3, 0)
	mulAdd(c, [][2]int{{2, 4}})
	c.Set(1, 5)
	rowsEqual(t, m, want, "frozen source after clone mutations")
	if !c.Get(0, 2) || !c.Get(3, 0) || !c.Get(2, 4) || !c.Get(1, 5) {
		t.Fatal("clone lost its own mutations")
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGrewApartMatchesEntries: GrewApart agrees with an entry-by-entry
// check (no entry of m in a row or a column below prior's size that
// prior lacks) for copy-on-write clones grown through Set, the product
// fold and Resize, in list and bitmap rows alike, and against a deep
// copy of the prior, which shares no row with the clone.
func TestGrewApartMatchesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[bool]int{}
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(150)
		prior := NewBool(n, n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			prior.Set(rng.Intn(n), rng.Intn(n))
		}
		m := prior.CloneFrozen()
		if trial%2 == 1 {
			m = prior.CloneCOW()
		}
		grown := n + 1 + rng.Intn(70)
		m.Resize(grown, grown)
		var added [][2]int
		for e := rng.Intn(6); e > 0; e-- {
			p := [2]int{n + rng.Intn(grown-n), n + rng.Intn(grown-n)}
			if rng.Intn(3) == 0 {
				p[rng.Intn(2)] = rng.Intn(grown)
			}
			added = append(added, p)
		}
		for _, p := range added[:len(added)/2] {
			m.Set(p[0], p[1])
		}
		mulAdd(m, added[len(added)/2:])
		want := true
		m.Iterate(func(i, j int) bool {
			if (i < n || j < n) && (i >= n || j >= n || !prior.Get(i, j)) {
				want = false
			}
			return want
		})
		seen[want]++
		for label, p := range map[string]*Bool{"clone": prior, "copy": prior.Clone()} {
			if got := GrewApart(p, m); got != want {
				t.Fatalf("trial %d %s: GrewApart = %v, want %v (added %v)", trial, label, got, want, added)
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("trials exercised only one verdict: %v", seen)
	}
}
