package matrix

import (
	"testing"
)

// TestAccumulatorPoolResize exercises the pool across widths: an
// accumulator put back dirty, shrunk and regrown within capacity must
// never resurrect stale bits from a wider earlier use.
func TestAccumulatorPoolResize(t *testing.T) {
	a := getAccumulator(1024)
	a.reset()
	a.orRow([]uint32{0, 63, 64, 1000, 1023})
	if a.count() != 5 {
		t.Fatalf("count = %d, want 5", a.count())
	}
	putAccumulator(a)

	// Shrink: only the narrow region is visible.
	b := getAccumulator(64)
	b.reset()
	b.orRow([]uint32{1})
	if got := b.extract(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("narrow extract = %v, want [1]", got)
	}
	putAccumulator(b)

	// Regrow within capacity: the re-exposed region must read empty.
	c := getAccumulator(1024)
	c.reset()
	c.orRow([]uint32{5})
	if c.contains(1000) || c.contains(1023) {
		t.Fatal("stale bits survived a shrink/regrow cycle")
	}
	if got := c.extract(nil); len(got) != 1 || got[0] != 5 {
		t.Fatalf("regrown extract = %v, want [5]", got)
	}
	putAccumulator(c)
}

// mulAllocsFixture builds a multiplication whose accumulator bitset
// (width 1<<14 columns -> 2KB of words) dominates allocations
// unless pooled.
func mulAllocsFixture() (*Bool, *Bool) {
	const n = 1 << 14
	a := NewBool(4, n)
	b := NewBool(n, n)
	for i := 0; i < 4; i++ {
		for j := 0; j < 32; j++ {
			a.Set(i, (i*997+j*131)%n)
		}
	}
	for i := 0; i < n; i += 7 {
		b.Set(i, (i*31+5)%n)
	}
	return a, b
}

// TestMulAllocsPooled guards the accumulator pool: the steady-state
// allocation count of Mul must stay at the result rows plus small
// constants, not the O(ncols/64) accumulator arrays. Without the pool
// this fixture measures ~2 extra allocations (accumulator struct and
// words) per call.
func TestMulAllocsPooled(t *testing.T) {
	a, b := mulAllocsFixture()
	Mul(a, b) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		Mul(a, b)
	})
	// 4 output rows + output struct/slice bookkeeping. The bound leaves
	// one alloc of headroom but excludes the 2 accumulator allocations.
	if allocs > 8 {
		t.Fatalf("Mul allocates %.1f objects/op; accumulator pool regressed (want <= 8)", allocs)
	}
}

func BenchmarkMulPooledAllocs(b *testing.B) {
	x, y := mulAllocsFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
