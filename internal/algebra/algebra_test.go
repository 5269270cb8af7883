package algebra

import (
	"testing"

	"mscfpq/internal/matrix"
)

// stubEnv is a minimal Env over fixed matrices.
type stubEnv struct {
	n     int
	edges map[string]*matrix.Bool
	verts map[string]*matrix.Bool
}

func newStubEnv(n int) *stubEnv {
	return &stubEnv{
		n:     n,
		edges: map[string]*matrix.Bool{},
		verts: map[string]*matrix.Bool{},
	}
}

func (e *stubEnv) EdgeMatrix(l string) *matrix.Bool {
	if m := e.edges[l]; m != nil {
		return m
	}
	return matrix.NewBool(e.n, e.n)
}
func (e *stubEnv) VertexMatrix(l string) *matrix.Bool {
	if m := e.verts[l]; m != nil {
		return m
	}
	return matrix.NewBool(e.n, e.n)
}
func (e *stubEnv) AnyEdgeMatrix() *matrix.Bool {
	u := matrix.NewBool(e.n, e.n)
	for _, m := range e.edges {
		matrix.AddInPlace(u, m)
	}
	return u
}

func env3() *stubEnv {
	e := newStubEnv(3)
	e.edges["a"] = matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 1}, {1, 2}})
	e.edges["b"] = matrix.NewBoolFromPairs(3, 3, [][2]int{{2, 0}})
	e.verts["x"] = matrix.NewBoolFromPairs(3, 3, [][2]int{{1, 1}})
	return e
}

func TestEvalBasicOperands(t *testing.T) {
	e := env3()
	cases := []struct {
		expr Expr
		want *matrix.Bool
	}{
		{EdgeLabel{Label: "a"}, e.edges["a"]},
		{VertexLabel{Label: "x"}, e.verts["x"]},
		{EdgeLabel{Label: "nope"}, matrix.NewBool(3, 3)},
		{AnyEdge{}, matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}})},
	}
	for i, c := range cases {
		got, err := Eval(c.expr, e)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !got.Equal(c.want) {
			t.Fatalf("case %d (%s):\n%v\nwant\n%v", i, c.expr, got, c.want)
		}
	}
}

func TestEvalCompound(t *testing.T) {
	e := env3()
	// a * a = {(0,2)}.
	got, err := Eval(Mul{L: EdgeLabel{Label: "a"}, R: EdgeLabel{Label: "a"}}, e)
	if err != nil || !got.Equal(matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 2}})) {
		t.Fatalf("a*a = %v, %v", got, err)
	}
	// a + b.
	got, _ = Eval(Add{L: EdgeLabel{Label: "a"}, R: EdgeLabel{Label: "b"}}, e)
	if got.NVals() != 3 {
		t.Fatalf("a+b nvals = %d", got.NVals())
	}
	// Transpose(a).
	got, _ = Eval(Transpose{Sub: EdgeLabel{Label: "a"}}, e)
	if !got.Get(1, 0) || !got.Get(2, 1) || got.NVals() != 2 {
		t.Fatalf("a^T = %v", got)
	}
	// Filter * a * V^x keeps the a-edges of the filtered sources that
	// land on x vertices.
	filter := Fixed{Name: "Filter", M: matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 0}, {1, 1}})}
	got, _ = Eval(Mul{L: Mul{L: filter, R: EdgeLabel{Label: "a"}}, R: VertexLabel{Label: "x"}}, e)
	if !got.Equal(matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 1}})) {
		t.Fatalf("Filter*a*V^x = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	e := env3()
	if _, err := Eval(nil, e); err == nil {
		t.Fatal("expected error for nil expr")
	}
	if _, err := Eval(Fixed{Name: "f"}, e); err == nil {
		t.Fatal("expected error for Fixed without matrix")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[Expr]string{
		Mul{L: Fixed{Name: "Filter"}, R: Add{L: EdgeLabel{Label: "a"}, R: EdgeLabel{Label: "b"}}}: "(Filter * (E^a + E^b))",
		Transpose{Sub: EdgeLabel{Label: "a"}}:                                                     "Transpose(E^a)",
		VertexLabel{Label: "x"}:                                                                   "V^x",
		AnyEdge{}:                                                                                 "E^*",
		Fixed{M: nil}:                                                                             "Fixed",
	}
	for expr, want := range cases {
		if got := expr.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// Errors inside operands must propagate through every compound node.
func TestEvalErrorPropagation(t *testing.T) {
	e := env3()
	bad := Fixed{Name: "missing"}
	a := EdgeLabel{Label: "a"}
	exprs := []Expr{
		Add{L: bad, R: a},
		Add{L: a, R: bad},
		Mul{L: bad, R: a},
		Mul{L: a, R: bad},
		Mul{L: a, R: Transpose{Sub: bad}},
		Transpose{Sub: bad},
	}
	for i, expr := range exprs {
		if _, err := Eval(expr, e); err == nil {
			t.Errorf("case %d (%s): expected error", i, expr)
		}
	}
}
