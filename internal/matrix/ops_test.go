package matrix

import (
	"math/rand"
	"testing"
)

func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n1, n2, n3 := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a, da := randomMatrix(rng, n1, n2, 0.15)
		b, db := randomMatrix(rng, n2, n3, 0.15)
		got := Mul(a, b)
		mustValidate(t, got)
		sparseEqualDense(t, got, da.mul(db))
	}
}

func TestMulEmptyOperands(t *testing.T) {
	a := NewBool(3, 4)
	b := NewBool(4, 5)
	if got := Mul(a, b); got.NVals() != 0 {
		t.Fatal("product of empty matrices must be empty")
	}
	a.Set(0, 0)
	if got := Mul(a, b); got.NVals() != 0 {
		t.Fatal("product with empty right operand must be empty")
	}
}

// or returns the element-wise OR a + b, leaving both operands as they
// were.
func or(a, b *Bool) *Bool {
	sum := a.Clone()
	AddInPlace(sum, b)
	return sum
}

func TestAddAndSub(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		a, da := randomMatrix(rng, 12, 9, 0.3)
		b, db := randomMatrix(rng, 12, 9, 0.3)
		sum := or(a, b)
		mustValidate(t, sum)
		diff := Sub(a, b)
		mustValidate(t, diff)
		for i := 0; i < 12; i++ {
			for j := 0; j < 9; j++ {
				if sum.Get(i, j) != (da.get(i, j) || db.get(i, j)) {
					t.Fatalf("Add mismatch at (%d,%d)", i, j)
				}
				if diff.Get(i, j) != (da.get(i, j) && !db.get(i, j)) {
					t.Fatalf("Sub mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestAddInPlaceChangeDetection(t *testing.T) {
	a := NewBoolFromPairs(2, 2, [][2]int{{0, 0}, {1, 1}})
	sub := NewBoolFromPairs(2, 2, [][2]int{{0, 0}})
	if AddInPlace(a, sub) {
		t.Fatal("adding a subset must report no change")
	}
	more := NewBoolFromPairs(2, 2, [][2]int{{0, 1}})
	if !AddInPlace(a, more) {
		t.Fatal("adding a new entry must report change")
	}
	if !a.Get(0, 1) || a.NVals() != 3 {
		t.Fatal("AddInPlace result wrong")
	}
	mustValidate(t, a)
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a, da := randomMatrix(rng, 8, 14, 0.25)
	at := Transpose(a)
	mustValidate(t, at)
	for i := 0; i < 8; i++ {
		for j := 0; j < 14; j++ {
			if at.Get(j, i) != da.get(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !Transpose(at).Equal(a) {
		t.Fatal("double transpose is not identity")
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestTransposeOfProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 25; trial++ {
		a, _ := randomMatrix(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.2)
		b, _ := randomMatrix(rng, a.NCols(), 1+rng.Intn(15), 0.2)
		lhs := Transpose(Mul(a, b))
		rhs := Mul(Transpose(b), Transpose(a))
		if !lhs.Equal(rhs) {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}

// Property: matrix multiplication is associative.
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		a, _ := randomMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.25)
		b, _ := randomMatrix(rng, a.NCols(), 1+rng.Intn(12), 0.25)
		c, _ := randomMatrix(rng, b.NCols(), 1+rng.Intn(12), 0.25)
		if !Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c))) {
			t.Fatalf("trial %d: (AB)C != A(BC)", trial)
		}
	}
}

// Property: addition is idempotent, commutative and associative.
func TestAddAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 25; trial++ {
		a, _ := randomMatrix(rng, 10, 10, 0.3)
		b, _ := randomMatrix(rng, 10, 10, 0.3)
		c, _ := randomMatrix(rng, 10, 10, 0.3)
		if !or(a, a).Equal(a) {
			t.Fatal("A+A != A")
		}
		if !or(a, b).Equal(or(b, a)) {
			t.Fatal("A+B != B+A")
		}
		if !or(or(a, b), c).Equal(or(a, or(b, c))) {
			t.Fatal("(A+B)+C != A+(B+C)")
		}
	}
}

// Property: multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 25; trial++ {
		a, _ := randomMatrix(rng, 9, 7, 0.25)
		b, _ := randomMatrix(rng, 7, 11, 0.25)
		c, _ := randomMatrix(rng, 7, 11, 0.25)
		lhs := Mul(a, or(b, c))
		rhs := or(Mul(a, b), Mul(a, c))
		if !lhs.Equal(rhs) {
			t.Fatalf("trial %d: A(B+C) != AB+AC", trial)
		}
	}
}

func TestExtractRows(t *testing.T) {
	m := NewBoolFromPairs(4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	set := NewVectorFromIndices(4, []int{1, 3})
	got := ExtractRows(m, set)
	mustValidate(t, got)
	if got.NVals() != 2 || !got.Get(1, 2) || !got.Get(3, 0) || got.Get(0, 1) {
		t.Fatalf("ExtractRows wrong: %v", got)
	}
}

// Property: AddRowsInPlace(a, b, set) is a ∪= ExtractRows(b, set), and
// it reports a change exactly when a grew.
func TestAddRowsInPlaceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 25; trial++ {
		a, _ := randomMatrix(rng, 10, 10, 0.2)
		b, _ := randomMatrix(rng, 10, 10, 0.3)
		set := NewVectorFromIndices(10, rng.Perm(10)[:rng.Intn(11)])
		want := or(a, ExtractRows(b, set))
		grew := want.NVals() > a.NVals()
		if changed := AddRowsInPlace(a, b, set); changed != grew || !a.Equal(want) {
			t.Fatalf("trial %d: changed=%v, want %v; a=%v\nwant %v", trial, changed, grew, a, want)
		}
		mustValidate(t, a)
	}
}

// TestAccumulatorReset: each round reads back exactly what it gathered,
// whatever earlier rounds left, masked or not.
func TestAccumulatorReset(t *testing.T) {
	acc := getAccumulator(128)
	defer putAccumulator(acc)
	mask := NewBoolFromPairs(1, 128, [][2]int{{0, 1}, {0, 64}})
	for round := 0; round < 4; round++ {
		acc.reset()
		if acc.count() != 0 || acc.contains(1) || acc.contains(127) {
			t.Fatalf("round %d: reset left %v", round, acc.extract(nil))
		}
		acc.orRow([]uint32{1, 64, 127})
		if round%2 == 1 {
			acc.clearRow(mask, 0) // zeroes a touched word outright
			if got := acc.extract(nil); len(got) != 1 || got[0] != 127 {
				t.Fatalf("round %d: masked extract = %v", round, got)
			}
			continue
		}
		got := acc.extract(nil)
		if len(got) != 3 || got[0] != 1 || got[1] != 64 || got[2] != 127 {
			t.Fatalf("round %d: extract = %v", round, got)
		}
	}
}

// ---------------------------------------------------------------------
// Kernel benchmarks.

func benchPair(density float64) (*Bool, *Bool) {
	rng := rand.New(rand.NewSource(99))
	a, _ := randomMatrix(rng, 400, 400, 0.01)
	b, _ := randomMatrix(rng, 400, 400, density)
	return a, b
}

func BenchmarkMulSparseRHS(b *testing.B) {
	x, y := benchPair(0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulDenseRHS(b *testing.B) {
	x, y := benchPair(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkTranspose(b *testing.B) {
	x, _ := benchPair(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(x)
	}
}

func BenchmarkAddInPlace(b *testing.B) {
	x, y := benchPair(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddInPlace(x.Clone(), y)
	}
}
