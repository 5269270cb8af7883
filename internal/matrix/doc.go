// Package matrix implements the sparse Boolean linear algebra the
// multiple-source CFPQ algorithms are expressed in.
//
// It is a small, dependency-free stand-in for the slice of the GraphBLAS
// API (SuiteSparse:GraphBLAS) used by the paper: Boolean matrix
// multiplication, element-wise addition (logical OR), set difference,
// transposition, and the column reduction that backs the paper's getDst
// function (reduce_vector in pygraphblas).
//
// # Representation
//
// A matrix takes one of two forms, both row-wise. This favours the
// access patterns of the CFPQ algorithms, which are row-driven:
// multiplication unions rows of the right operand selected by the left
// operand's rows.
//
//   - Bool is CSR-like: one slot per row, empty or not, so row i is an
//     index away, and anything that walks the matrix costs its dimension.
//     It holds what persists: graph label matrices and the relations a
//     fixpoint grows. Each row is whichever of two encodings is smaller:
//     a sorted, duplicate-free list of column indices (4 bytes an entry),
//     or a bitmap of ⌈ncols/64⌉ words (8 bytes a word) — the row turns
//     into a bitmap once its list would take more bytes, and never turns
//     back, since rows only grow. Bitmap rows sit in a second table that
//     exists only once one row needs it. Every kernel reads both
//     encodings; a product ORs a bitmap row a word at a time.
//   - RowList is hypersparse (DCSR): the sorted ids of the non-empty
//     rows and their column lists, with no slot for an empty row, so row
//     i is a search away and building, scanning or multiplying one costs
//     the rows it holds. It holds what a fixpoint round makes and drops:
//     the rows it selects from a relation (SelectRows, Restrict, Union),
//     what a product added (MulAddRows) and their getDst (Cols).
//
// The fixpoint's one kernel is MulAddRows, the masked multiply-accumulate
// t<¬t> ∪= a × b of GraphBLAS's mxm with a complemented mask and an OR
// accumulator: it gathers each product row, clears what t already
// holds, folds only the rest into t and returns it.
//
// Vector stores a sparse Boolean vector as a sorted index slice and
// doubles as the representation of vertex sets (query source sets,
// getDst results).
//
// # Errors
//
// Dimension mismatches are programming errors, not runtime conditions, so
// operations panic with a descriptive message instead of returning an
// error, mirroring the behaviour of GraphBLAS bindings and gonum.
//
// Matrices are not safe for concurrent mutation. Read-only sharing is
// safe.
package matrix
