//go:build !slow

package difftest

// Short-mode sizes: the standing tier-1.5 pass that `make diff-test`
// (and `make check`) runs under -race. Build with -tags=slow for the
// deep sweep.
const (
	cfpqInstances      = 120 // seeded (graph, grammar, source-set) cases
	rpqInstances       = 80  // seeded (graph, regex, source-set) cases
	metamorphicCases   = 40  // instances per metamorphic invariant
	queryCases         = 150 // generated query cases, four statements each
	maxGraphVertices   = 16
	governedBudgetSpan = 40 // budgets sampled from [1, span]
)
