package matrix

import (
	"fmt"
	"slices"
	"sort"
)

// Vector is a sparse Boolean vector: a sorted, duplicate-free set of
// indices drawn from [0, n). It represents vertex sets throughout the
// CFPQ algorithms (source sets, getDst results).
type Vector struct {
	n   int
	idx []uint32
}

// NewVector returns an empty vector of size n.
func NewVector(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("matrix: negative vector size %d", n))
	}
	return &Vector{n: n}
}

// NewVectorFromIndices builds a vector of size n from the given indices,
// which may be unsorted and may repeat.
func NewVectorFromIndices(n int, indices []int) *Vector {
	v := NewVector(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Size returns the dimension of the vector.
func (v *Vector) Size() int { return v.n }

// NVals returns the number of set indices.
func (v *Vector) NVals() int { return len(v.idx) }

// Empty reports whether no index is set.
func (v *Vector) Empty() bool { return len(v.idx) == 0 }

// Set marks index i.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("matrix: vector index %d out of range %d", i, v.n))
	}
	c := uint32(i)
	k := sort.Search(len(v.idx), func(x int) bool { return v.idx[x] >= c })
	if k < len(v.idx) && v.idx[k] == c {
		return
	}
	v.idx = append(v.idx, 0)
	copy(v.idx[k+1:], v.idx[k:])
	v.idx[k] = c
}

// Get reports whether index i is set.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("matrix: vector index %d out of range %d", i, v.n))
	}
	c := uint32(i)
	k := sort.Search(len(v.idx), func(x int) bool { return v.idx[x] >= c })
	return k < len(v.idx) && v.idx[k] == c
}

// Indices returns the sorted set indices. The slice is owned by the
// vector and must not be modified.
func (v *Vector) Indices() []uint32 { return v.idx }

// Ints returns the set indices as a fresh []int.
func (v *Vector) Ints() []int {
	out := make([]int, len(v.idx))
	for k, c := range v.idx {
		out[k] = int(c)
	}
	return out
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return &Vector{n: v.n, idx: append([]uint32(nil), v.idx...)}
}

// Equal reports whether the vectors have identical size and indices.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n || len(v.idx) != len(o.idx) {
		return false
	}
	for k := range v.idx {
		if v.idx[k] != o.idx[k] {
			return false
		}
	}
	return true
}

// UnionInPlace ORs o into v and reports whether v changed. It merges
// from the back into v's own array, grown with append's amortized
// capacity, so a small o costs its searches in v plus one move of the
// part of v above o's first new index, and no allocation once v has
// room. No other Vector shares v's array (Clone and every constructor
// copy), so the spare capacity it writes is v's alone.
func (v *Vector) UnionInPlace(o *Vector) bool {
	if v.n != o.n {
		panic(fmt.Sprintf("matrix: vector union size mismatch %d vs %d", v.n, o.n))
	}
	added, at := 0, 0
	for _, c := range o.idx {
		if at = gallop(v.idx, at, c); at == len(v.idx) || v.idx[at] != c {
			added++
		}
	}
	if added == 0 {
		return false
	}
	old := len(v.idx)
	v.idx = slices.Grow(v.idx, added)[:old+added]
	// end is where v's elements not yet moved stop; dst is one past the
	// next slot to fill from the back.
	end, dst := old, old+added
	for j := len(o.idx) - 1; j >= 0; j-- {
		c := o.idx[j]
		p, found := slices.BinarySearch(v.idx[:end], c)
		if found {
			continue
		}
		dst -= end - p
		copy(v.idx[dst:], v.idx[p:end])
		dst--
		v.idx[dst] = c
		end = p
	}
	return true
}

// Exchange makes v the set of idx, distinct indices of [0, v.Size()),
// which it sorts in place and keeps, and returns v's former array,
// emptied, so a vector refilled round after round allocates nothing.
func (v *Vector) Exchange(idx []uint32) []uint32 {
	slices.Sort(idx)
	old := v.idx[:0]
	v.idx = idx
	return old
}

// DiffInPlace removes o's indices from v and reports whether v changed.
// It compacts v in place and gallops through o, so it costs v's length
// when o is much larger.
func (v *Vector) DiffInPlace(o *Vector) bool {
	if v.n != o.n {
		panic(fmt.Sprintf("matrix: vector diff size mismatch %d vs %d", v.n, o.n))
	}
	before := len(v.idx)
	v.idx = diffInPlace(v.idx, o.idx)
	return len(v.idx) != before
}

func (v *Vector) String() string {
	return fmt.Sprintf("Vector{n=%d, set=%v}", v.n, v.Ints())
}
