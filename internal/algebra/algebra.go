// Package algebra implements the algebraic expressions the database
// layer translates relationship patterns into (paper Figure 11):
//
//	AlgExpr = AlgExpr + AlgExpr | AlgExpr * AlgExpr |
//	          Transpose(AlgExpr) | Matrix
//
// Label operands stay symbolic (edge or vertex label names) and are
// resolved against an Env at evaluation time, so one expression can be
// evaluated against different graphs or filter contexts. Path patterns
// do not come here: they are compiled into the PATH PATTERN grammar and
// answered by the multiple-source CFPQ driver, which plays the paper's
// Algorithm 8 (internal/plan).
package algebra

import (
	"fmt"

	"mscfpq/internal/exec"
	"mscfpq/internal/matrix"
)

// Governed is an optional Env extension: environments that also
// implement it have their multiplications routed through the returned
// execution governor, giving expression evaluation the same
// cancellation, timeout, and budget behavior as the CFPQ engines. A nil
// governor (or an Env without the method) evaluates ungoverned.
type Governed interface {
	ExecRun() *exec.Run
}

// envRun extracts the optional governor; nil means ungoverned.
func envRun(env Env) *exec.Run {
	if g, ok := env.(Governed); ok {
		return g.ExecRun()
	}
	return nil
}

// Env resolves symbolic operands during evaluation.
type Env interface {
	// EdgeMatrix resolves an edge label ("x" or inverse "x_r").
	EdgeMatrix(label string) *matrix.Bool
	// VertexMatrix resolves a vertex label to its diagonal matrix.
	VertexMatrix(label string) *matrix.Bool
	// AnyEdgeMatrix returns the union of all edge label matrices.
	AnyEdgeMatrix() *matrix.Bool
}

// Expr is an algebraic expression node.
type Expr interface {
	String() string
	// eval computes the expression's matrix under env.
	eval(env Env) (*matrix.Bool, error)
}

// Add is element-wise OR.
type Add struct{ L, R Expr }

// Mul is Boolean matrix multiplication.
type Mul struct{ L, R Expr }

// Transpose reverses the relation.
type Transpose struct{ Sub Expr }

// EdgeLabel is the adjacency matrix operand E^l (or its transpose for
// inverse labels "x_r").
type EdgeLabel struct{ Label string }

// VertexLabel is the diagonal vertex matrix operand V^l.
type VertexLabel struct{ Label string }

// AnyEdge is the union of all adjacency matrices (a bare --> pattern).
type AnyEdge struct{}

// Fixed wraps a concrete matrix (e.g. the record-buffer filter diagonal
// the traverse operations prepend).
type Fixed struct {
	Name string
	M    *matrix.Bool
}

func (e Add) String() string         { return "(" + e.L.String() + " + " + e.R.String() + ")" }
func (e Mul) String() string         { return "(" + e.L.String() + " * " + e.R.String() + ")" }
func (e Transpose) String() string   { return "Transpose(" + e.Sub.String() + ")" }
func (e EdgeLabel) String() string   { return "E^" + e.Label }
func (e VertexLabel) String() string { return "V^" + e.Label }
func (e AnyEdge) String() string     { return "E^*" }
func (e Fixed) String() string {
	if e.Name != "" {
		return e.Name
	}
	return "Fixed"
}

// Eval evaluates the expression under env.
func Eval(e Expr, env Env) (*matrix.Bool, error) {
	if e == nil {
		return nil, fmt.Errorf("algebra: nil expression")
	}
	return e.eval(env)
}

func (e Add) eval(env Env) (*matrix.Bool, error) {
	l, err := e.L.eval(env)
	if err != nil {
		return nil, err
	}
	r, err := e.R.eval(env)
	if err != nil {
		return nil, err
	}
	return matrix.Add(l, r), nil
}

func (e Mul) eval(env Env) (*matrix.Bool, error) {
	l, err := e.L.eval(env)
	if err != nil {
		return nil, err
	}
	r, err := e.R.eval(env)
	if err != nil {
		return nil, err
	}
	return envRun(env).Mul(l, r)
}

func (e Transpose) eval(env Env) (*matrix.Bool, error) {
	m, err := e.Sub.eval(env)
	if err != nil {
		return nil, err
	}
	return matrix.Transpose(m), nil
}

func (e EdgeLabel) eval(env Env) (*matrix.Bool, error)   { return env.EdgeMatrix(e.Label), nil }
func (e VertexLabel) eval(env Env) (*matrix.Bool, error) { return env.VertexMatrix(e.Label), nil }
func (e AnyEdge) eval(env Env) (*matrix.Bool, error)     { return env.AnyEdgeMatrix(), nil }

func (e Fixed) eval(Env) (*matrix.Bool, error) {
	if e.M == nil {
		return nil, fmt.Errorf("algebra: Fixed operand %q has no matrix", e.Name)
	}
	return e.M, nil
}
