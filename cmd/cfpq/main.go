// Command cfpq evaluates a context-free path query over a graph file.
//
// Usage:
//
//	cfpq -graph g.txt -grammar q.txt [-algo ms] [-src 0,5,7] [-limit 20]
//
// Algorithms: allpairs (Algorithm 1), seminaive (delta iteration), ms
// (Algorithm 2, default), smart (Algorithm 3 on a fresh index),
// singlepath / mspath (witness extraction). Each calls its internal/cfpq
// evaluator directly; ms, smart and mspath need -src, and the others
// restrict their answer to it when given. -timeout and -budget govern
// the query.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mscfpq/internal/cfpq"
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

// evaluate runs the evaluator algo names. It returns the result whose
// Rounds and Work the stats line prints, the answer pairs (the start
// relation, restricted to src when it is given) and, for singlepath and
// mspath, the witness extraction.
func evaluate(algo string, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts []cfpq.Option) (*cfpq.Result, [][2]int, func(src, dst int) ([]cfpq.PathStep, error), error) {
	var (
		res  *cfpq.Result
		ans  *matrix.Bool // the answer of an evaluator that restricts to src itself
		path func(src, dst int) ([]cfpq.PathStep, error)
		err  error
	)
	switch algo {
	case "allpairs":
		res, err = cfpq.AllPairs(g, w, opts...)
	case "seminaive":
		res, err = cfpq.AllPairsSemiNaive(g, w, opts...)
	case "singlepath":
		var r *cfpq.SinglePathResult
		if r, err = cfpq.SinglePath(g, w, opts...); err == nil {
			res, path = r.Result, r.Path
		}
	case "ms":
		var r *cfpq.MSResult
		if r, err = cfpq.MultiSource(g, w, src, opts...); err == nil {
			res, ans = r.Result, r.Answer()
		}
	case "smart":
		var idx *cfpq.Index
		var r *cfpq.MSResult
		if idx, err = cfpq.NewIndex(g, w); err == nil {
			r, err = idx.MultiSourceSmart(src, opts...)
		}
		if err == nil {
			res, ans = r.Result, r.Answer()
		}
	case "mspath":
		var r *cfpq.MSSinglePathResult
		if r, err = cfpq.MultiSourceSinglePath(g, w, src, opts...); err == nil {
			res, ans, path = r.Result, r.Answer(), r.Path
		}
	default:
		return nil, nil, nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	switch {
	case err != nil:
		return nil, nil, nil, err
	case ans != nil:
		return res, ans.Pairs(), path, nil
	case src != nil:
		return res, res.PairsFrom(src), path, nil
	}
	return res, res.Pairs(), path, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cfpq", flag.ContinueOnError)
	var (
		graphPath   = fs.String("graph", "", "graph file (edge-list format)")
		grammarPath = fs.String("grammar", "", "grammar file")
		algo        = fs.String("algo", "ms", "allpairs | seminaive | ms | smart | singlepath | mspath")
		srcSpec     = fs.String("src", "", "comma-separated source vertices (ms/smart/mspath)")
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

	if src == nil && (*algo == "ms" || *algo == "smart" || *algo == "mspath") {
		return fmt.Errorf("-algo %s needs -src", *algo)
	}
	var opts []cfpq.Option
	if *timeout > 0 {
		opts = append(opts, cfpq.WithTimeout(*timeout))
	}
	if *budget > 0 {
		opts = append(opts, cfpq.WithBudget(*budget))
	}
	res, pairs, path, err := evaluate(*algo, g, w, src, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "algorithm: %s; rounds: %d; work: %d\n", *algo, res.Rounds, res.Work)
	if *showPaths && path == nil {
		return fmt.Errorf("-paths needs -algo singlepath or mspath")
	}
	fmt.Fprintf(stdout, "%d result pairs\n", len(pairs))
	shown := pairs
	if *limit > 0 && len(shown) > *limit {
		shown = shown[:*limit]
	}
	for _, p := range shown {
		if !*showPaths {
			fmt.Fprintf(stdout, "%d -> %d\n", p[0], p[1])
			continue
		}
		steps, err := path(p[0], p[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d -> %d via %s\n", p[0], p[1], strings.Join(cfpq.Word(steps), " "))
	}
	if *limit > 0 && len(pairs) > *limit {
		fmt.Fprintf(stdout, "... (%d more)\n", len(pairs)-*limit)
	}
	return nil
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
