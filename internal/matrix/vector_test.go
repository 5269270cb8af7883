package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorSetGet(t *testing.T) {
	v := NewVector(10)
	for _, i := range []int{5, 1, 9, 1} {
		v.Set(i)
	}
	if v.NVals() != 3 || !v.Get(5) || !v.Get(1) || !v.Get(9) || v.Get(0) {
		t.Fatalf("vector state wrong: %v", v)
	}
	if got := v.Ints(); !reflect.DeepEqual(got, []int{1, 5, 9}) {
		t.Fatalf("Ints = %v", got)
	}
}

func TestVectorUnionDiff(t *testing.T) {
	a := NewVectorFromIndices(8, []int{1, 3, 5})
	b := NewVectorFromIndices(8, []int{3, 4})
	if !a.UnionInPlace(b) {
		t.Fatal("union adding new index must report change")
	}
	if !reflect.DeepEqual(a.Ints(), []int{1, 3, 4, 5}) {
		t.Fatalf("union = %v", a.Ints())
	}
	if a.UnionInPlace(b) {
		t.Fatal("second union must report no change")
	}
	if !a.DiffInPlace(NewVectorFromIndices(8, []int{1, 4})) {
		t.Fatal("diff removing indices must report change")
	}
	if !reflect.DeepEqual(a.Ints(), []int{3, 5}) {
		t.Fatalf("diff = %v", a.Ints())
	}
	if a.DiffInPlace(NewVector(8)) {
		t.Fatal("diff with empty must report no change")
	}
}

func TestVectorCloneEqual(t *testing.T) {
	a := NewVectorFromIndices(5, []int{0, 2})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(4)
	if a.Equal(b) || a.Get(4) {
		t.Fatal("clone shares storage")
	}
	if a.Equal(NewVector(6)) {
		t.Fatal("vectors of different size must differ")
	}
}

// diag returns the n x n matrix with v's indices on the diagonal: the
// matrix form of a source set.
func diag(v *Vector) *Bool {
	pairs := make([][2]int, 0, v.NVals())
	for _, i := range v.Ints() {
		pairs = append(pairs, [2]int{i, i})
	}
	return NewBoolFromPairs(v.Size(), v.Size(), pairs)
}

func TestDiagRoundTrip(t *testing.T) {
	v := NewVectorFromIndices(6, []int{0, 3, 5})
	d := diag(v)
	if d.NVals() != 3 || !d.Get(3, 3) || d.Get(3, 0) {
		t.Fatalf("diag wrong:\n%v", d)
	}
	if !ReduceCols(d).Equal(v) || !ReduceCols(Transpose(d)).Equal(v) {
		t.Fatal("diag(v) must hold exactly v's rows and columns")
	}
}

// ReduceCols is the paper's getDst (Algorithm 2, lines 17-21) as a
// vector.
func TestReduceColsMatchesGetDst(t *testing.T) {
	m := NewBoolFromPairs(5, 5, [][2]int{{0, 2}, {1, 2}, {3, 4}})
	want := NewVectorFromIndices(5, []int{2, 4})
	if got := ReduceCols(m); !got.Equal(want) {
		t.Fatalf("ReduceCols = %v, want %v", got, want)
	}
	if got := ReduceCols(NewBool(5, 5)); !got.Empty() || got.Size() != 5 {
		t.Fatalf("ReduceCols of an empty matrix = %v", got)
	}
}

func TestVecMul(t *testing.T) {
	m := NewBoolFromPairs(4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	v := NewVectorFromIndices(4, []int{0, 2})
	if got := VecMul(v, m); !got.Equal(NewVectorFromIndices(4, []int{1, 3})) {
		t.Fatalf("VecMul = %v", got)
	}
	if got := VecMul(NewVector(4), m); !got.Empty() {
		t.Fatal("empty vector times matrix must be empty")
	}
}

// Property (testing/quick): getDst(M), as the vector ReduceCols(M), holds
// exactly the columns of M, for arbitrary generated matrices.
func TestGetDstPropertyQuick(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		const n = 24
		m := NewBool(n, n)
		for _, p := range pairs {
			m.Set(int(p[0])%n, int(p[1])%n)
		}
		d := ReduceCols(m)
		// Every column of m is set in d and nothing else.
		cols := map[int]bool{}
		m.Iterate(func(i, j int) bool { cols[j] = true; return true })
		if d.NVals() != len(cols) {
			return false
		}
		for j := range cols {
			if !d.Get(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): diag(v) * M selects exactly the rows of M
// listed in v — the row-filtering identity Algorithm 2 relies on.
func TestDiagMulSelectsRowsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(rowsSeed []uint8) bool {
		const n = 20
		m, _ := randomMatrix(rng, n, n, 0.2)
		v := NewVector(n)
		for _, s := range rowsSeed {
			v.Set(int(s) % n)
		}
		got := Mul(diag(v), m)
		want := ExtractRows(m, v)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
