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
// Bool stores a sparse Boolean matrix in CSR-like form: one sorted,
// duplicate-free slice of column indices per row. This favours the access
// patterns of the CFPQ algorithms, which are row-driven: multiplication
// unions rows of the right operand selected by the left operand's rows.
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
