//go:build slow

package difftest

// Slow-mode sizes: the deep sweep behind `make diff-test-slow`
// (go test -tags=slow). Same properties, two orders of magnitude more
// instances and larger graphs.
const (
	cfpqInstances      = 3000
	rpqInstances       = 1500
	metamorphicCases   = 500
	queryCases         = 2000
	maxGraphVertices   = 40
	governedBudgetSpan = 400
)
