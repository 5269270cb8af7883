# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Packages with internal concurrency (query governor, index locking,
# server drain); `race-quick` covers just these, `race` the whole
# module.
RACE_PKGS = ./internal/gdb ./internal/resp ./internal/plan ./internal/cfpq ./internal/exec ./internal/store ./internal/graph ./internal/matrix ./internal/analysis/... ./cmd/mscfpq-lint

.PHONY: check all build vet test race race-quick cover bench bench-quick bench-smoke bench-e2e experiments fuzz fuzz-smoke diff-test diff-test-slow chaos chaos-repl lint lint-tools loc clean

# Default: what CI runs on every change.
check: build vet lint test race diff-test chaos chaos-repl bench-smoke

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-quick:
	$(GO) test -race $(RACE_PKGS)

# Differential suite: every CFPQ/RPQ evaluator against the independent
# oracle, the metamorphic invariants, and generated Cypher path queries
# through the database against the pattern oracle (see TESTING.md). The
# short pass runs under -race; diff-test-slow is the deep seeded sweep.
diff-test:
	$(GO) test -race -count=1 ./internal/difftest ./internal/oracle ./internal/gen

diff-test-slow:
	$(GO) test -tags=slow -count=1 ./internal/difftest

# Chaos suite: fault-injected crash/recovery over every durability
# failpoint, the hostile-client server tests, and the snapshot/cache
# concurrency stress suite (TestStress*: pinned-version reads vs
# concurrent writes checked against the oracle), race-enabled (see
# TESTING.md). The nofault build proves the failpoint framework
# compiles down to no-ops for release builds.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestHostile|TestDispatchPanic|TestBusyShedding|TestShutdownRaces|TestMaxConns|TestIdleTimeout|TestReadBoundedLine|TestStress|TestStoreConcurrentPinUpdate' ./internal/gdb ./internal/resp ./internal/fault ./internal/store
	$(GO) build -tags=nofault ./...
	$(GO) test -tags=nofault -count=1 ./internal/fault

# Replication chaos suite (see TESTING.md and DESIGN.md §13): the
# whole internal/repl package race-enabled — leader/follower pairs
# over real sockets, every repl.* failpoint struck with
# error/torn/panic specs on both sides, kill-restart of either node —
# plus the gdb replication primitives (read-only mode, record
# scanning, mirrored apply/rotate/install, pin-vs-prune, and a
# follower's cache drops and fsync metric on apply) and the
# client-side failover surface (redial, leader hints, routing). The
# nofault build proves the replication failpoints also compile to
# no-ops for release builds.
chaos-repl:
	$(GO) test -race -count=1 ./internal/repl
	$(GO) test -race -count=1 -run 'TestReadOnlyReplica|TestPinSegment|TestScanRecords|TestDecodeFramed|TestReplApply|TestReplRotate|TestReplInstall|TestWatchJournal|TestFollowerCacheDropsReplacedStores|TestFollowerFsyncIsObserved' ./internal/gdb
	$(GO) test -race -count=1 -run 'TestIsBrokenConn|TestLeaderHint|TestDoRetry|TestRoutingClient|TestServerReadOnly' ./internal/resp
	$(GO) build -tags=nofault ./internal/repl

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper table/figure plus kernel benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every evaluation artifact (tables, CSV series, SVG figures).
experiments:
	$(GO) run ./cmd/benchrunner -exp all -csv figures_sweep.csv -svg figures

bench-quick:
	$(GO) run ./cmd/benchrunner -exp all -quick

# In-process benchmarks, all of them `go test -bench` (see TESTING.md).
# The observability benchmark prints the governed-kernel and
# multiple-source workloads with the metrics registry on and off, five
# times each so the spread shows; the overhead is read against 3% and
# not enforced. It runs as five processes, not with -count 5: -count
# runs a mode's five repetitions back to back, so drift of the machine
# between the two blocks reads as overhead (one -count 5 run put
# multi-source on 20% above off, where on was the faster in all five
# alternating runs). The result cache's acceptance gate (warm hit >=
# 10x faster than cold) is TestCacheWarmHitGate in `make test`.
# The reply
# benchmarks print what one query reply costs to encode and to decode
# (10 and 6000 rows, ns and allocations; DESIGN.md §15), and what
# Client.Do of a 6000-row reply costs over loopback, the client's share
# of dense-scan — their gate is the allocation guard TestReplyAllocs in
# `make test`. The kernel
# benchmarks print what one multiple-source query costs under the
# fixpoint driver (DESIGN.md §16): from scratch, against a saturated
# index, and as one chunk-10 step of a pathways/G1 sweep cut from a
# seeded permutation — the per-query fixed cost of the wire benchmark's
# sparse-sweep, in seconds and bytes (its size guard is
# TestSweepQueryBytesAreSizeIndependent in `make test`) — and as the
# first chunk-100 query of go-hierarchy@0.02/G2 on a fresh index, the
# wire benchmark's dense-cold, with its rounds, work and answer size per
# query (their guard is TestFixpointWorkPinned), on one and on two
# processors, since its products gather row blocks on every processor;
# and as the all-sources a^n b^n query, hundreds of rounds of one-block
# products, the per-call cost of the kernel. The kernel micro-benchmark
# times one MulAddRows call on each of dense-cold's two heaviest product
# shapes on its own, outside the driver: short rows times long row-list
# rows (bitmaps), and long rows times a relation's short rows. The RPQ
# benchmark prints what one regular query costs through that same
# driver (rpq.Eval, experiment E11), checked against the oracle. The
# traverse benchmark prints what one relationship or one-step path hop
# from one bound source costs on 20 000 vertices (ns and allocations;
# its gate is TestTraverseAllocsAreSizeIndependent in `make test`), and
# what a plan's read-out of 6000 two-column rows costs (DESIGN.md §15;
# its gate is TestExecuteBytesPerCell in `make test`). The cache-hit
# benchmark prints what one cached MATCH read costs through
# QueryContext, exact and revalidated after a write, and a 6000-row
# exact hit through QueryCells, the server's entry (their gates are
# TestCacheHitSkipsParse and TestCellHitIsItsResultAlone in `make test`);
# the cached-answers benchmark fills the result cache with dense-scan
# answers nobody reads again, which hold only its probation segment (an
# eighth of the budget, DESIGN.md §11), and times one collection with
# the answers and MiB held. The parse benchmark prints what parsing a
# mixed-rw chunk statement costs, half of a result-cache miss against a
# warm index (its gate is TestParseAllocs in `make test`).
# The dense-cold statement benchmark prints what the wire's dense-cold op
# costs in process: the G2 count of a hundred sources through
# QueryCells on a freshly restored go-hierarchy@0.02, with its fixpoint
# rounds per op (14.57 at -benchtime 40x). The sparse-sweep statement
# benchmark prints the wire's sparse-sweep op in process: chunk-10 G1
# statements over pathways through QueryCells, restored every 62
# queries, with rounds and allocations per op (18.69 rounds at
# -benchtime 620x, one sweep). The regular-shapes benchmark
# prints what regular path expressions cost through the one path
# compiler, cold from a hundred sources on go-hierarchy@0.1, as a MATCH
# and as a regex, with rounds, product entries and answer pairs per op
# (DESIGN.md §4 item 9; -short skips the paper's size). The apart-write
# benchmark prints what one CREATE-shaped write costs through
# Store.Update on core@1 and go-hierarchy@1, and what carrying a G1
# index that processed a hundred sources across it costs
# (cfpq.NewIndexWarm); both read the graph's lineage stamp
# (graph.GrewApart, DESIGN.md §11), not its rows.
bench-smoke:
	for i in 1 2 3 4 5; do $(GO) test -run '^$$' -bench 'BenchmarkObsOverhead$$' -benchmem . || exit 1; done
	$(GO) test -run '^$$' -bench 'BenchmarkReply(Encode|Decode)|BenchmarkClientReadout' -benchmem ./internal/resp
	$(GO) test -run '^$$' -bench 'BenchmarkKernel(MultiSource|SmartWarm)$$|BenchmarkRPQUnification$$' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkKernel(DenseCold|SmartSweep|ManyRounds)$$' -cpu 1,2 -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkMulAddRows$$' -cpu 1,2 -benchmem ./internal/matrix
	$(GO) test -run '^$$' -bench 'BenchmarkTraverseHop$$|BenchmarkExecuteReadout$$' -benchmem ./internal/plan
	$(GO) test -run '^$$' -bench 'BenchmarkQueryCacheHit$$|BenchmarkCachedAnswersGC$$' -benchmem ./internal/gdb
	$(GO) test -run '^$$' -bench 'BenchmarkParse$$' -benchmem ./internal/cypher
	$(GO) test -run '^$$' -bench 'BenchmarkDenseColdStatement$$' -benchtime 40x -benchmem ./internal/gdb
	$(GO) test -run '^$$' -bench 'BenchmarkSparseSweepStatement$$' -benchtime 620x -benchmem ./internal/gdb
	$(GO) test -run '^$$' -bench 'BenchmarkRegularShapes$$' -short -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkUpdateApart$$' -benchtime 200x -benchmem ./internal/store

# The wire-level benchmark (benchmark/README.md), one workload end to
# end, exactly as BENCHMARK.json's command runs it:
#   make bench-e2e WORKLOAD=dense-scan [SEED=7] [TRACE=1]
# TESTING.md has the -repeat/-compare recipe for comparing two commits.
WORKLOAD ?= dense-scan
SEED ?= 1
TRACE ?= 0
bench-e2e:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 15 --trace $(TRACE)

# Short fuzzing sessions over every parser, plus generated Cypher path
# queries checked end to end against the pattern oracle (FuzzQuery).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/cypher/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=30s ./internal/grammar/
	$(GO) test -run=NONE -fuzz=FuzzRegex -fuzztime=30s ./internal/rpq/
	$(GO) test -run=NONE -fuzz=FuzzRead$$ -fuzztime=30s ./internal/resp/
	$(GO) test -run=NONE -fuzz=FuzzReadMatchesReference -fuzztime=30s -fuzzminimizetime=2s ./internal/resp/
	$(GO) test -run=NONE -fuzz=FuzzRead -fuzztime=30s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzRecoverJournal -fuzztime=30s ./internal/gdb/
	$(GO) test -run=NONE -fuzz=FuzzRecoverSnapshot -fuzztime=30s ./internal/gdb/
	$(GO) test -run=NONE -fuzz=FuzzCacheKey -fuzztime=30s ./internal/store/
	$(GO) test -run=NONE -fuzz=FuzzQuery -fuzztime=30s ./internal/difftest/

# Ten-second fuzz pass per target: enough to catch shallow regressions
# on every CI run without holding the pipeline hostage.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/cypher/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/grammar/
	$(GO) test -run=NONE -fuzz=FuzzRegex -fuzztime=10s ./internal/rpq/
	$(GO) test -run=NONE -fuzz=FuzzRead$$ -fuzztime=10s ./internal/resp/
	$(GO) test -run=NONE -fuzz=FuzzReadMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/resp/
	$(GO) test -run=NONE -fuzz=FuzzRead -fuzztime=10s ./internal/graph/
	$(GO) test -run=NONE -fuzz=FuzzRecoverJournal -fuzztime=10s ./internal/gdb/
	$(GO) test -run=NONE -fuzz=FuzzRecoverSnapshot -fuzztime=10s ./internal/gdb/
	$(GO) test -run=NONE -fuzz=FuzzCacheKey -fuzztime=10s ./internal/store/
	$(GO) test -run=NONE -fuzz=FuzzQuery -fuzztime=10s ./internal/difftest/

# Static analysis gate: formatting, the repository's own analyzers
# (cmd/mscfpq-lint — see DESIGN.md §12) under both tag configurations
# (default and the nofault release build, whose file set differs) with
# stale-suppression detection on the default pass, and, when the
# pinned tool is installed (`make lint-tools`), a vulnerability scan.
# govulncheck needs network access to fetch the vuln DB, so it
# participates only where available rather than failing hermetic
# builds.
lint:
	@unformatted="$$(gofmt -l . | grep -v testdata || true)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/mscfpq-lint -unused-suppressions
	$(GO) run ./cmd/mscfpq-lint -tags nofault
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "lint: govulncheck not installed; skipping (run 'make lint-tools')"; \
	fi

# Install the optional lint tooling at pinned versions. Requires
# network access; the core `make lint` gate works without it.
lint-tools:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@v1.1.4

# Non-test Go lines per package directory and in total: the `wc -l`
# of every .go file but the _test.go ones, the figure ROADMAP's size
# gates quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	rm -rf .bench_build *.test *.prof
