package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseRef is a naive dense Boolean matrix used as a test oracle.
type denseRef struct {
	nrows, ncols int
	v            []bool
}

func newDense(nrows, ncols int) *denseRef {
	return &denseRef{nrows: nrows, ncols: ncols, v: make([]bool, nrows*ncols)}
}

func (d *denseRef) set(i, j int)      { d.v[i*d.ncols+j] = true }
func (d *denseRef) get(i, j int) bool { return d.v[i*d.ncols+j] }

func (d *denseRef) mul(o *denseRef) *denseRef {
	out := newDense(d.nrows, o.ncols)
	for i := 0; i < d.nrows; i++ {
		for k := 0; k < d.ncols; k++ {
			if !d.get(i, k) {
				continue
			}
			for j := 0; j < o.ncols; j++ {
				if o.get(k, j) {
					out.set(i, j)
				}
			}
		}
	}
	return out
}

func (d *denseRef) toSparse() *Bool {
	m := NewBool(d.nrows, d.ncols)
	for i := 0; i < d.nrows; i++ {
		for j := 0; j < d.ncols; j++ {
			if d.get(i, j) {
				m.Set(i, j)
			}
		}
	}
	return m
}

func sparseEqualDense(t *testing.T, m *Bool, d *denseRef) {
	t.Helper()
	if m.NRows() != d.nrows || m.NCols() != d.ncols {
		t.Fatalf("shape mismatch: sparse %dx%d dense %dx%d", m.NRows(), m.NCols(), d.nrows, d.ncols)
	}
	for i := 0; i < d.nrows; i++ {
		for j := 0; j < d.ncols; j++ {
			if m.Get(i, j) != d.get(i, j) {
				t.Fatalf("entry (%d,%d): sparse=%v dense=%v", i, j, m.Get(i, j), d.get(i, j))
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, nrows, ncols int, density float64) (*Bool, *denseRef) {
	m := NewBool(nrows, ncols)
	d := newDense(nrows, ncols)
	for i := 0; i < nrows; i++ {
		for j := 0; j < ncols; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
				d.set(i, j)
			}
		}
	}
	return m, d
}

func mustValidate(t *testing.T, m *Bool) {
	t.Helper()
	if err := m.validate(); err != nil {
		t.Fatalf("invalid matrix: %v", err)
	}
}

func TestSetGet(t *testing.T) {
	m := NewBool(4, 5)
	if m.Get(1, 2) {
		t.Fatal("fresh matrix should be empty")
	}
	m.Set(1, 2)
	m.Set(1, 2) // idempotent
	m.Set(1, 0)
	m.Set(3, 4)
	if !m.Get(1, 2) || !m.Get(1, 0) || !m.Get(3, 4) {
		t.Fatal("set entries not readable")
	}
	if m.NVals() != 3 {
		t.Fatalf("NVals = %d, want 3", m.NVals())
	}
	mustValidate(t, m)
}

func TestSetOrderIndependent(t *testing.T) {
	a := NewBool(1, 10)
	b := NewBool(1, 10)
	cols := []int{7, 3, 9, 0, 5}
	for _, c := range cols {
		a.Set(0, c)
	}
	for i := len(cols) - 1; i >= 0; i-- {
		b.Set(0, cols[i])
	}
	if !a.Equal(b) {
		t.Fatalf("insertion order changed result:\n%v\n%v", a, b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { NewBool(2, 2).Set(2, 0) },
		func() { NewBool(2, 2).Set(0, -1) },
		func() { NewBool(2, 2).Get(-1, 0) },
		func() { NewBool(2, 2).Row(5) },
		func() { NewVector(3).Set(3) },
		func() { Mul(NewBool(2, 3), NewBool(2, 3)) },
		func() { AddInPlace(NewBool(2, 3), NewBool(3, 2)) },
		func() { NewBool(2, 2).Resize(1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewBoolFromPairs(3, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	c := m.Clone()
	c.Set(0, 0)
	if m.Get(0, 0) {
		t.Fatal("Clone shares storage with original")
	}
	m.Set(1, 1)
	if c.Get(1, 1) {
		t.Fatal("Clone affected by original mutation")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := randomMatrix(rng, 9, 13, 0.2)
	back := NewBoolFromPairs(9, 13, m.Pairs())
	if !back.Equal(m) {
		t.Fatal("Pairs round trip mismatch")
	}
}

func TestIterateEarlyStop(t *testing.T) {
	m := NewBoolFromPairs(3, 3, [][2]int{{0, 0}, {1, 1}, {2, 2}})
	n := 0
	m.Iterate(func(i, j int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Iterate visited %d entries, want 2", n)
	}
}

func TestResize(t *testing.T) {
	m := NewBoolFromPairs(3, 3, [][2]int{{2, 2}})
	m.Resize(5, 6)
	if m.NRows() != 5 || m.NCols() != 6 || !m.Get(2, 2) {
		t.Fatal("Resize lost entries or shape")
	}
	m.Set(4, 5)
	mustValidate(t, m)
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewBoolFromPairs(2, 3, [][2]int{{0, 0}, {1, 2}})
	if got := small.String(); got == "" {
		t.Fatal("empty String for small matrix")
	}
	large := NewBool(100, 100)
	if got := large.String(); got != "Bool{100x100, 0 vals}" {
		t.Fatalf("large String = %q", got)
	}
}

// validate checks m's internal invariants.
func (m *Bool) validate() error {
	if m.shared != nil && len(m.shared) != m.nrows {
		return fmt.Errorf("shared marks length %d does not match %d rows", len(m.shared), m.nrows)
	}
	if m.bits != nil && len(m.bits) != m.nrows {
		return fmt.Errorf("bitmap table length %d does not match %d rows", len(m.bits), m.nrows)
	}
	n := 0
	for i, row := range m.rows {
		if b := m.bitRow(i); b != nil {
			if row != nil {
				return fmt.Errorf("row %d is both a list and a bitmap", i)
			}
			if len(b) > nwords(m.ncols) {
				return fmt.Errorf("row %d: bitmap of %d words for %d columns", i, len(b), m.ncols)
			}
			if last := b[len(b)-1]; len(b) == nwords(m.ncols) && m.ncols%64 != 0 && last>>(m.ncols%64) != 0 {
				return fmt.Errorf("row %d: bitmap holds a column past %d", i, m.ncols)
			}
			if popcount(b) == 0 {
				return fmt.Errorf("row %d: empty bitmap", i)
			}
			n += popcount(b)
			continue
		}
		if len(row) > listMax(m.ncols) {
			return fmt.Errorf("row %d: list of %d entries, past the bitmap crossover %d", i, len(row), listMax(m.ncols))
		}
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
