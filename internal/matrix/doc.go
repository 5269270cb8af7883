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
// A matrix takes one of two forms, both holding each row as a sorted,
// duplicate-free slice of column indices. This favours the access
// patterns of the CFPQ algorithms, which are row-driven: multiplication
// unions rows of the right operand selected by the left operand's rows.
//
//   - Bool is CSR-like: one slot per row, empty or not, so row i is an
//     index away, and anything that walks the matrix costs its dimension.
//     It holds what persists: graph label matrices and the relations a
//     fixpoint grows.
//   - RowList is hypersparse (DCSR): the sorted ids of the non-empty
//     rows and their slices, with no slot for an empty row, so row i is a
//     search away and building, scanning or multiplying one costs the
//     rows it holds. It holds what a fixpoint round makes and drops: the
//     rows it selects from a relation (SelectRows, Restrict, Union), the
//     products (MulRows, by a Bool or a RowList), what is new in them
//     (DiffInPlace) and their getDst (Cols). AddListInPlace folds one
//     into a Bool.
//
// Vector stores a sparse Boolean vector as a sorted index slice and
// doubles as the representation of vertex sets (query source sets,
// getDst results, diagonal matrices).
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
