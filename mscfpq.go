// Package mscfpq is a Go implementation of multiple-source context-free
// path querying (CFPQ) in terms of sparse Boolean linear algebra, after
// Terekhov et al., "Multiple-Source Context-Free Path Querying in Terms
// of Linear Algebra" (EDBT 2021), together with the full-stack graph
// database layer the paper builds: a Cypher dialect with openCypher path
// patterns, execution plans with a CFPQTraverse operation, and a
// RESP-protocol server.
//
// This root package is the public facade: it re-exports the user-facing
// types and constructors so applications depend on one import path. The
// implementation lives in internal/ packages (see DESIGN.md for the map).
//
// # Quick start
//
//	g := mscfpq.NewGraph(4)
//	g.AddEdge(0, "a", 1)
//	g.AddEdge(1, "b", 2)
//	gr, _ := mscfpq.ParseGrammar("S -> a S b | a b")
//	w, _ := mscfpq.ToWCNF(gr)
//	src := mscfpq.NewVertexSet(g.NumVertices(), 0)
//	res, _ := mscfpq.EvalCFPQ(g, w, src)
//	fmt.Println(res.Pairs())
package mscfpq

import (
	"mscfpq/internal/cfpq"
	"mscfpq/internal/dataset"
	"mscfpq/internal/exec"
	"mscfpq/internal/gdb"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
	"mscfpq/internal/resp"
	"mscfpq/internal/rpq"
)

// Execution governance. Every query entry point accepts functional
// options controlling cancellation, resource budgets and the algorithm:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := mscfpq.EvalCFPQ(g, w, src,
//		mscfpq.WithContext(ctx),
//		mscfpq.WithBudget(1_000_000))
//
// A governed query returns context.Canceled / context.DeadlineExceeded
// when its context fires, or ErrBudget when it exceeds its work budget
// (cumulative relation entries produced across fixpoint iterations).
type (
	// Option configures one query execution.
	Option = exec.Option
	// Algorithm selects the evaluation strategy of EvalCFPQ.
	Algorithm = exec.Algorithm
	// Trace records a per-query span tree with kernel counter deltas;
	// attach one with WithTrace and render it with Trace.Render.
	Trace = obs.Trace
	// TraceSpan is one timed stage of a traced query.
	TraceSpan = obs.Span
)

var (
	// WithContext bounds the query by a caller context.
	WithContext = exec.WithContext
	// WithTimeout bounds the query by a wall-clock duration.
	WithTimeout = exec.WithTimeout
	// WithBudget bounds the query's work (relation entries produced).
	WithBudget = exec.WithBudget
	// WithAlgorithm selects the CFPQ evaluation algorithm (see EvalCFPQ).
	WithAlgorithm = exec.WithAlgorithm
	// WithTrace attaches a per-query trace recording stage spans and
	// kernel counter deltas.
	WithTrace = exec.WithTrace
	// NewTrace starts a trace for WithTrace; call Trace.Close when the
	// query returns, then Trace.Render or Trace.Root to inspect it.
	NewTrace = obs.NewTrace

	// ErrBudget is returned when a query exceeds its work budget.
	ErrBudget = exec.ErrBudget
)

// CFPQ algorithms for WithAlgorithm.
const (
	// AlgAuto picks by query shape: multiple-source when a source set
	// is given, all-pairs otherwise.
	AlgAuto = exec.AlgAuto
	// AlgMatrix is the all-pairs matrix algorithm (Algorithm 1).
	AlgMatrix = exec.AlgMatrix
	// AlgSemiNaive is the delta-driven all-pairs variant.
	AlgSemiNaive = exec.AlgSemiNaive
	// AlgWorklist is the non-linear-algebra CFL-reachability baseline.
	AlgWorklist = exec.AlgWorklist
	// AlgMultiSource is the multiple-source algorithm (Algorithm 2).
	AlgMultiSource = exec.AlgMultiSource
	// AlgSinglePath is all-pairs with single-path witness extraction.
	AlgSinglePath = exec.AlgSinglePath
	// AlgMSSinglePath is multiple-source with single-path witness
	// extraction.
	AlgMSSinglePath = exec.AlgMSSinglePath
)

// Core data model.
type (
	// Graph is an edge- and vertex-labeled directed graph stored as
	// Boolean label matrices (the paper's data model).
	Graph = graph.Graph
	// Grammar is a context-free grammar over graph labels.
	Grammar = grammar.Grammar
	// WCNF is a grammar in weak Chomsky normal form, the input format of
	// the matrix algorithms.
	WCNF = grammar.WCNF
	// VertexSet is a sparse set of vertices (query sources, results).
	VertexSet = matrix.Vector
	// BoolMatrix is a sparse Boolean matrix (relations, adjacency).
	BoolMatrix = matrix.Bool
)

// Query results.
type (
	// Result holds one relation matrix per grammar nonterminal.
	Result = cfpq.Result
	// MSResult is a multiple-source result; Answer() restricts the start
	// relation to the queried sources.
	MSResult = cfpq.MSResult
	// Index is the cross-query cache of the optimized multiple-source
	// algorithm (Algorithm 3).
	Index = cfpq.Index
	// PathStep is one edge (or vertex-label step) of an extracted path.
	PathStep = cfpq.PathStep
	// CFPQResult is the unified result of EvalCFPQ: answer pairs plus
	// evaluation statistics, independent of the algorithm.
	CFPQResult = cfpq.EvalResult
	// PathCFPQResult is the CFPQResult extension of the single-path
	// algorithms: one witness path per answer pair.
	PathCFPQResult = cfpq.PathEvalResult
	// CFPQStats reports how an EvalCFPQ evaluation ran (algorithm,
	// fixpoint rounds, governor work, answer count).
	CFPQStats = cfpq.Stats
)

// Database layer.
type (
	// DB is the in-memory multi-graph database.
	DB = gdb.DB
	// GraphStore couples a graph with node properties inside a DB.
	GraphStore = gdb.GraphStore
	// QueryResult is the outcome of one Cypher statement.
	QueryResult = gdb.QueryResult
	// Server serves a DB over the RESP protocol.
	Server = resp.Server
	// Client is a RESP client for the server.
	Client = resp.Client
	// QueryReply is a decoded GRAPH.QUERY response.
	QueryReply = resp.QueryReply
)

// DatasetSpec describes one synthetic analog of the paper's graphs.
type DatasetSpec = dataset.Spec

// NewGraph returns an empty graph with n vertices; it grows on demand.
func NewGraph(n int) *Graph { return graph.New(n) }

// LoadGraph reads a graph from the textual edge-list format.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph in the textual edge-list format.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// ParseGrammar parses a grammar ("S -> a S b | a b"; see internal/grammar).
func ParseGrammar(src string) (*Grammar, error) { return grammar.ParseString(src) }

// LoadGrammar reads a grammar file.
func LoadGrammar(path string) (*Grammar, error) { return grammar.LoadFile(path) }

// ToWCNF normalizes a grammar to weak Chomsky normal form.
func ToWCNF(g *Grammar) (*WCNF, error) { return grammar.ToWCNF(g) }

// G1 is the paper's same-generation query over subClassOf and type
// (eq. 1).
func G1() *Grammar { return grammar.G1() }

// G2 is the paper's same-generation query over subClassOf alone (eq. 2).
func G2() *Grammar { return grammar.G2() }

// Geo is the paper's geospecies query over broaderTransitive (eq. 3).
func Geo() *Grammar { return grammar.Geo() }

// AnBnGrammar is the classic bracket-matching query S -> a S b | a b
// used by the paper's running examples and the stress benchmarks.
func AnBnGrammar() *Grammar { return grammar.AnBn("a", "b") }

// NewVertexSet builds a vertex set of size n containing the given ids.
// Duplicate ids collapse to one membership; negative or out-of-range
// ids denote no vertex of the graph and are dropped, so a set built
// from untrusted input is always well-formed. Querying with it then
// returns the answer for the valid vertices (paths from a vertex that
// does not exist are simply absent).
func NewVertexSet(n int, ids ...int) *VertexSet {
	valid := make([]int, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < n {
			valid = append(valid, id)
		}
	}
	return matrix.NewVectorFromIndices(n, valid)
}

// EvalCFPQ is the unified CFPQ entry point, mirroring EvalRPQ: it
// evaluates the query defined by w over g with the algorithm selected
// by WithAlgorithm (AlgAuto picks multiple-source when src is non-nil,
// all-pairs otherwise). A non-nil src restricts the answer to those
// sources under every algorithm, so the options are interchangeable:
//
//	res, err := mscfpq.EvalCFPQ(g, w, src)                              // Algorithm 2
//	res, err := mscfpq.EvalCFPQ(g, w, nil,
//		mscfpq.WithAlgorithm(mscfpq.AlgSemiNaive))                      // all-pairs, delta iteration
//
// Results from AlgSinglePath and AlgMSSinglePath additionally satisfy
// PathCFPQResult. All exec options (timeout, budget, trace) apply.
func EvalCFPQ(g *Graph, w *WCNF, src *VertexSet, opts ...Option) (CFPQResult, error) {
	return cfpq.Eval(g, w, src, opts...)
}

// NewIndex builds the cross-query cache for the optimized
// multiple-source algorithm (Algorithm 3); query it with
// Index.MultiSourceSmart. Options given here become the defaults for
// every query on the index; per-query options override them.
func NewIndex(g *Graph, w *WCNF, opts ...Option) (*Index, error) {
	return cfpq.NewIndex(g, w, opts...)
}

// Word returns the label word of an extracted path.
func Word(steps []PathStep) []string { return cfpq.Word(steps) }

// EvalRPQ answers a multiple-source regular path query ("subClassOf+
// type_r?") with pair semantics. Regular queries are a partial case of
// CFPQ: the regex is compiled to a left-linear grammar by the compiler
// of the query language's path patterns and evaluated by the
// multiple-source algorithm, so the same options apply as to EvalCFPQ:
//
//	reach, err := mscfpq.EvalRPQ(g, "subClassOf+ type_r?", src,
//		mscfpq.WithBudget(1_000_000))
func EvalRPQ(g *Graph, query string, src *VertexSet, opts ...Option) (*BoolMatrix, error) {
	return rpq.Eval(g, query, src, opts...)
}

// NewDB creates an empty graph database.
func NewDB() *DB { return gdb.New() }

// NewServer wraps a database in a RESP server.
func NewServer(db *DB) *Server { return resp.NewServer(db) }

// Dial connects a client to a running server.
func Dial(addr string) (*Client, error) { return resp.Dial(addr) }

// Dataset returns the registry of synthetic analogs of the paper's
// evaluation graphs (Table 1).
func Dataset() []DatasetSpec { return dataset.Registry() }

// GenerateDataset materializes one analog by name, scaled by f.
func GenerateDataset(name string, f float64) (*Graph, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(dataset.Scaled(spec, f)), nil
}
