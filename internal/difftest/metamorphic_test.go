package difftest

import (
	"math/rand"
	"testing"

	"mscfpq/internal/gen"
)

// The five standing metamorphic invariants (documented in DESIGN.md):
//
//  1. chunk-union: the union of multiple-source answers over any chunking
//     of the source set equals the source-restricted all-pairs relation;
//  2. index reuse: the smart index is order-independent and idempotent;
//  3. path replay: extracted single paths replay to valid derivations;
//  4. governed-abort soundness: budgeted/cancelled runs never return a
//     wrong partial answer, and an index query aborted at any budget
//     claims no source and keeps only true facts;
//  5. index carry: an index carried across a write that grows the graph
//     apart keeps its processed rows, equal to the oracle's; across one
//     that links an old vertex it keeps only oracle facts, no processed
//     source, and answers as a fresh index.
//
// Each invariant runs over its own seeded instance stream so adding or
// resizing one stream never perturbs the others.

func runMetamorphic(t *testing.T, offset int64, check func(inst gen.Instance, rng *rand.Rand) error) {
	t.Helper()
	failures := 0
	for i := 0; i < metamorphicCases; i++ {
		seed := *seedFlag + offset + int64(i)
		inst := gen.NewInstance(seed, maxGraphVertices)
		rng := rand.New(rand.NewSource(seed))
		if err := check(inst, rng); err != nil {
			dir, werr := WriteRepro(inst)
			if werr != nil {
				t.Logf("writing repro: %v", werr)
			}
			t.Errorf("seed %d (rerun: go test ./internal/difftest -seed=%d): %v\nrepro dumped to %s",
				seed, seed, err, dir)
			if failures++; failures >= 3 {
				t.Fatalf("stopping after %d failing instances", failures)
			}
		}
	}
}

func TestMetamorphicChunkUnion(t *testing.T) {
	runMetamorphic(t, 3_000_000, func(inst gen.Instance, rng *rand.Rand) error {
		return CheckChunkUnion(inst, 1+rng.Intn(4))
	})
}

func TestMetamorphicIndexReuse(t *testing.T) {
	runMetamorphic(t, 4_000_000, func(inst gen.Instance, rng *rand.Rand) error {
		return CheckIndexReuse(inst, 1+rng.Intn(4))
	})
}

func TestMetamorphicPathReplay(t *testing.T) {
	runMetamorphic(t, 5_000_000, func(inst gen.Instance, rng *rand.Rand) error {
		return CheckPathReplay(inst)
	})
}

func TestMetamorphicGovernedAbort(t *testing.T) {
	runMetamorphic(t, 6_000_000, func(inst gen.Instance, rng *rand.Rand) error {
		return CheckGoverned(inst, 1+rng.Int63n(governedBudgetSpan))
	})
}

func TestMetamorphicIndexCarry(t *testing.T) {
	runMetamorphic(t, 8_000_000, CheckIndexCarry)
}
