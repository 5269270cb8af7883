// Package stalefixture is a module with a test file and no package the
// deadexport allowlist names, so each of its entries is stale here.
package stalefixture

func double(x int) int { return 2 * x }
