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
// Matrices are row-wise. This favours the access patterns of the CFPQ
// algorithms, which are row-driven: multiplication unions rows of the
// right operand selected by the left operand's rows.
//
// Both matrix types embed one row table (slots). A row is a sorted,
// duplicate-free list of column indices (4 bytes an entry) or a bitmap
// of ⌈ncols/64⌉ words (8 bytes a word): a bitmap once its list would
// take more bytes (listMax), wherever a row's form is decided. Bitmap
// rows sit in a second table that exists only once one row needs it.
// Every kernel reads both forms; a product ORs a bitmap row a word at a
// time.
//
//   - Bool is CSR-like: one slot per row, empty or not, so row i is an
//     index away, and anything that walks the matrix costs its dimension.
//     It holds what persists: graph label matrices and the relations a
//     fixpoint grows. Its rows only grow, so a bitmap never turns back.
//   - RowList is hypersparse (DCSR): the sorted ids of the non-empty
//     rows and a slot for each, with none for an empty row, so row i is a
//     search away and building, scanning or multiplying one costs the
//     rows it holds. It holds what a fixpoint round makes and drops: the
//     rows it selects from a relation (SelectRows, Restrict, Union), what
//     a product added (MulAddRows) and their getDst (Cols). A row a
//     product gathers or a union merges takes the smaller form; a row
//     copied out of a Bool (SelectRows, ListRows) is a list.
//
// The fixpoint's one kernel is MulAddRows, the masked multiply-accumulate
// t<¬t> ∪= a × b of GraphBLAS's mxm with a complemented mask and an OR
// accumulator: it gathers each product row, clears what t already
// holds, emits the rest in the smaller encoding, folds it into t and
// returns it. Like SuiteSparse, it picks how to gather from its operands,
// per 64 rows of a: row by row (Gustavson's push), or, for long rows
// cheaper so by count, by column panel — the rows transposed, 64×64 bits
// at a time, so each row of b is read once a panel and ORed a word.
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
// # Concurrency
//
// Matrices are not safe for concurrent mutation. Read-only sharing is
// safe, and MulAddRows relies on it: a product of more than one block of
// ctxCheckRows left-operand rows gathers its blocks on the calling
// goroutine and up to runtime.GOMAXPROCS-1 helpers, which only read the
// operands and t; the caller folds the gathered rows into t, in block
// order, after they all finish. A one-block product runs on the caller
// alone. Nothing else in the package starts a goroutine.
package matrix
