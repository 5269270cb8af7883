// Package cfpq implements the paper's context-free path querying
// algorithms in terms of sparse Boolean linear algebra:
//
//   - AllPairs: Azimov's matrix-based all-pairs algorithm (Algorithm 1),
//     the baseline the paper modifies, kept verbatim as the reference;
//   - MultiSource: the multiple-source algorithm (Algorithm 2), which
//     restricts computation to paths starting from a given vertex set by
//     threading source sets TSrc^A through the fixpoint;
//   - Index.MultiSourceSmart: the optimized multiple-source algorithm
//     (Algorithm 3), which caches previously computed sources across
//     queries so each vertex is processed at most once;
//   - SinglePath: all-pairs querying with single-path semantics
//     (Terekhov et al., GRADES-NDA'20; the paper's Figure 2 experiment),
//     the all-pairs run plus a log of what each product added, from which
//     it reconstructs a concrete path for any result pair.
//
// Every matrix evaluator but AllPairs is set-up, one call of the
// delta-driven fixpoint driver (fixpoint.go, DESIGN.md §16) and result
// packing; the driver holds source sets as vectors, and a single-path
// run differs only in logging what each product added.
//
// All algorithms accept grammars in weak Chomsky normal form
// (grammar.WCNF) and graphs as Boolean label-matrix decompositions
// (graph.Graph). Terminal symbols are resolved against edge labels
// (including the "x_r" inverse convention) and vertex labels: a rule
// A -> y where y labels vertices contributes the diagonal vertex matrix
// V^y, matching Definition 2.14's interleaving of vertex labels into
// path words. A source-restricted run copies these seed facts only into
// the rows it activates; a label relation (T#x -> x) is the graph's
// own matrix and takes no copy.
package cfpq
