// Command cfpq evaluates a context-free path query over a graph file.
//
// Usage:
//
//	cfpq -graph g.txt -grammar q.txt [-algo ms] [-src 0,5,7] [-limit 20]
//
// Algorithms: allpairs (Algorithm 1), seminaive (delta iteration), ms
// (Algorithm 2, default), smart (Algorithm 3), worklist
// (CFL-reachability baseline), singlepath / mspath (witness
// extraction). All but smart go through the unified cfpq.Eval entry
// point.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfpq:", err)
		os.Exit(1)
	}
}

// algorithms maps the -algo flag to Eval's algorithm options; smart
// stays on its own entry point (the index has no Eval equivalent).
var algorithms = map[string]exec.Algorithm{
	"allpairs":   exec.AlgMatrix,
	"seminaive":  exec.AlgSemiNaive,
	"ms":         exec.AlgMultiSource,
	"worklist":   exec.AlgWorklist,
	"singlepath": exec.AlgSinglePath,
	"mspath":     exec.AlgMSSinglePath,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cfpq", flag.ContinueOnError)
	var (
		graphPath   = fs.String("graph", "", "graph file (edge-list format)")
		grammarPath = fs.String("grammar", "", "grammar file")
		algo        = fs.String("algo", "ms", "allpairs | seminaive | ms | smart | worklist | singlepath | mspath")
		srcSpec     = fs.String("src", "", "comma-separated source vertices (ms/smart/worklist)")
		limit       = fs.Int("limit", 50, "maximum pairs to print (0 = all)")
		showPaths   = fs.Bool("paths", false, "print a witness path per pair (singlepath/mspath)")
		timeout     = fs.Duration("timeout", 0, "abort the query after this duration (0 = none)")
		budget      = fs.Int64("budget", 0, "abort after producing this many relation entries (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *grammarPath == "" {
		fs.Usage()
		return fmt.Errorf("need -graph and -grammar")
	}
	g, err := graph.LoadFile(*graphPath)
	if err != nil {
		return err
	}
	cf, err := grammar.LoadFile(*grammarPath)
	if err != nil {
		return err
	}
	w, err := grammar.ToWCNF(cf)
	if err != nil {
		return err
	}
	src, err := parseSources(*srcSpec, g.NumVertices())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges; grammar: %d nonterminals, %d rules\n",
		g.NumVertices(), g.NumEdges(), w.NumNonterms(), len(w.BinRules)+len(w.TermRules))

	var opts []exec.Option
	if *timeout > 0 {
		opts = append(opts, exec.WithTimeout(*timeout))
	}
	if *budget > 0 {
		opts = append(opts, exec.WithBudget(*budget))
	}

	if alg, ok := algorithms[*algo]; ok {
		res, err := cfpq.Eval(g, w, src, append(opts, exec.WithAlgorithm(alg))...)
		if err != nil {
			return err
		}
		st := res.Stats()
		fmt.Fprintf(stdout, "algorithm: %v; rounds: %d; work: %d\n", st.Algorithm, st.Rounds, st.Work)
		if *showPaths {
			pr, ok := res.(cfpq.PathEvalResult)
			if !ok {
				return fmt.Errorf("-paths needs -algo singlepath or mspath")
			}
			return printWithPaths(stdout, pr, *limit)
		}
		return printPairs(stdout, res.Pairs(), *limit)
	}

	if *algo != "smart" {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if src == nil {
		return fmt.Errorf("-algo smart needs -src")
	}
	idx, err := cfpq.NewIndex(g, w, opts...)
	if err != nil {
		return err
	}
	r, err := idx.MultiSourceSmart(src)
	if err != nil {
		return err
	}
	return printPairs(stdout, r.Answer().Pairs(), *limit)
}

func parseSources(spec string, n int) (*matrix.Vector, error) {
	if spec == "" {
		return nil, nil
	}
	v := matrix.NewVector(n)
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("bad source vertex %q (graph has %d vertices)", part, n)
		}
		v.Set(id)
	}
	return v, nil
}

func printPairs(stdout io.Writer, pairs [][2]int, limit int) error {
	fmt.Fprintf(stdout, "%d result pairs\n", len(pairs))
	shown := pairs
	if limit > 0 && len(shown) > limit {
		shown = shown[:limit]
	}
	for _, p := range shown {
		fmt.Fprintf(stdout, "%d -> %d\n", p[0], p[1])
	}
	if limit > 0 && len(pairs) > limit {
		fmt.Fprintf(stdout, "... (%d more)\n", len(pairs)-limit)
	}
	return nil
}

func printWithPaths(stdout io.Writer, sp cfpq.PathEvalResult, limit int) error {
	pairs := sp.Pairs()
	fmt.Fprintf(stdout, "%d result pairs\n", len(pairs))
	if limit > 0 && len(pairs) > limit {
		pairs = pairs[:limit]
	}
	for _, p := range pairs {
		steps, err := sp.Path(p[0], p[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d -> %d via %s\n", p[0], p[1], strings.Join(cfpq.Word(steps), " "))
	}
	return nil
}
