package obs

import "strconv"

// The instrument catalog (DESIGN.md §10). Naming convention:
// <layer>.<subject>.<unit-ish suffix>; the INFO command groups by the
// first dotted component (kernel → kernels section, gdb → gdb,
// dur → durability, cache → cache, resp/governor → server).
//
// Trace span counters reuse these names verbatim, so a PROFILE span
// tree's counter totals are directly comparable against a registry
// snapshot delta.
var (
	// Matrix kernels (charged by the execution governor, exec.Run).
	KernelMulOps      = Default.Counter("kernel.mul.ops")
	KernelMulNNZ      = Default.Counter("kernel.mul.nnz")
	KernelAddOps      = Default.Counter("kernel.add.ops")
	KernelAddNNZ      = Default.Counter("kernel.add.nnz")
	KernelFrontierNNZ = Default.Histogram("kernel.frontier.nnz", SizeBuckets)

	// Row blocks of a product gathered off the query's goroutine: 0
	// while every product fits one block or one processor.
	KernelMulHelperBlocks = Default.Counter("kernel.mul.helper_blocks")

	// Rows of a product's left operand gathered by column panels, 64 at
	// a time: 0 while no product has rows long enough for a panel to
	// cost less than push (DESIGN.md §16).
	KernelMulPanelRows = Default.Counter("kernel.mul.panel_rows")

	// Fixpoint shape: rounds until convergence (RPQ runs on the CFPQ
	// driver, so its rounds land here too).
	CFPQRounds = Default.Histogram("kernel.cfpq.rounds", RoundBuckets)

	// Carrying an index over to a newer graph version (cfpq.NewIndexWarm):
	// the rounds its maintenance run took (0 when the write touched no
	// processed row) and how many processed rows it changed.
	CFPQMaintainRounds = Default.Histogram("kernel.cfpq.maintain.rounds", RoundBuckets)
	CFPQMaintainDirty  = Default.Histogram("kernel.cfpq.maintain.dirty", SizeBuckets)

	// Execution governor outcomes (one per top-level query).
	GovCompleted = Default.Counter("governor.completed")
	GovCancelled = Default.Counter("governor.cancelled")
	GovBudget    = Default.Counter("governor.budget_exceeded")
	GovFailed    = Default.Counter("governor.failed")

	// Graph database command path.
	GdbQueries        = Default.Counter("gdb.queries")
	GdbWrites         = Default.Counter("gdb.writes")
	GdbSlowQueries    = Default.Counter("gdb.slow_queries")
	GdbQueryLatencyUS = Default.Histogram("gdb.query.latency_us", LatencyBuckets)
	// Path-pattern contexts built cold because carrying the cached one
	// over to a newer version failed.
	GdbCtxColdRebuilds = Default.Counter("gdb.ctx.cold_rebuilds")
	// Path-pattern contexts built cold for one reader, because its slot
	// had moved past the version the reader pinned.
	GdbCtxPrivateBuilds = Default.Counter("gdb.ctx.private_builds")

	// Durability (snapshots + op journal).
	DurSnapshotBytes  = Default.Counter("dur.snapshot.bytes")
	DurSnapshots      = Default.Counter("dur.snapshot.count")
	DurJournalBytes   = Default.Counter("dur.journal.bytes")
	DurJournalAppends = Default.Counter("dur.journal.appends")
	DurRotations      = Default.Counter("dur.rotations")
	DurFsyncLatencyUS = Default.Histogram("dur.fsync.latency_us", LatencyBuckets)

	// Version-keyed query cache (internal/store).
	CacheHits          = Default.Counter("cache.hits")
	CacheMisses        = Default.Counter("cache.misses")
	CacheEvictions     = Default.Counter("cache.evictions")
	CacheInvalidations = Default.Counter("cache.invalidations")
	// Hits served by an entry computed at another version, whose rows a
	// dirty-row check vouched for (also counted in cache.hits).
	CacheRevalidations = Default.Counter("cache.revalidations")
	// Entries a first hit moved from the probation segment to the
	// protected one, and what probation holds (among cache.bytes): a
	// scan of texts nobody reads again holds only probation.
	CachePromotions     = Default.Counter("cache.promotions")
	CacheBytes          = Default.Gauge("cache.bytes")
	CacheProbationBytes = Default.Gauge("cache.probation.bytes")
	CacheEntries        = Default.Gauge("cache.entries")

	// RESP serving surface.
	RespConnsTotal   = Default.Counter("resp.conns.total")
	RespConnsOpen    = Default.Gauge("resp.conns.open")
	RespConnsRefused = Default.Counter("resp.conns.refused")
	RespBusyShed     = Default.Counter("resp.busy_shed")
	RespCommands     = Default.Counter("resp.commands")
	// What replies put on the wire: a slow command with a large share
	// of these was a long read-out, not a slow fixpoint.
	RespReplyBytes = Default.Counter("resp.reply.bytes")
	RespReplyRows  = Default.Counter("resp.reply.rows")

	// Replication (internal/repl): the leader side counts what it ships,
	// the follower side counts what it applies and how often the stream
	// had to be rebuilt.
	ReplBytesShipped       = Default.Counter("repl.shipped.bytes")
	ReplRecordsShipped     = Default.Counter("repl.shipped.records")
	ReplSnapshotBootstraps = Default.Counter("repl.snapshot.bootstraps")
	ReplReconnects         = Default.Counter("repl.reconnects")
	ReplRecordsApplied     = Default.Counter("repl.applied.records")
	ReplReplicasConnected  = Default.Gauge("repl.replicas.connected")
	ReplLagSeconds         = Default.Gauge("repl.lag_seconds")
)

// RespCmdLatency returns the latency histogram for one RESP command.
// Callers must pass a normalized name drawn from the fixed command
// set (unknown commands collapse to "other") so hostile clients
// cannot grow the registry without bound.
func RespCmdLatency(name string) *Histogram {
	return Default.Histogram("resp.cmd."+name+".latency_us", LatencyBuckets)
}

// Trace counter keys for the kernel instruments (shared between
// Run hooks and tests asserting span-tree/registry agreement).
const (
	KeyMulOps = "kernel.mul.ops"
	KeyMulNNZ = "kernel.mul.nnz"
	KeyAddOps = "kernel.add.ops"
	KeyAddNNZ = "kernel.add.nnz"

	KeyMulHelperBlocks = "kernel.mul.helper_blocks"
	KeyMulPanelRows    = "kernel.mul.panel_rows"
)

// Layer prefixes: the first dotted component of every instrument name
// must be one of these, which is what the INFO command sections by.
// The obscatalog analyzer enforces both directions.
const (
	LayerKernel   = "kernel"
	LayerGovernor = "governor"
	LayerGdb      = "gdb"
	LayerDur      = "dur"
	LayerCache    = "cache"
	LayerResp     = "resp"
	LayerRepl     = "repl"
)

// Span names of the query trace tree (DESIGN.md §10). Free-string span
// names drift away from what PROFILE consumers grep for; every span a
// trace opens must use one of these or an obs helper like SpanRound.
const (
	SpanQuery    = "query"    // root span of one GRAPH.QUERY
	SpanParse    = "parse"    // Cypher parse + plan build
	SpanPlan     = "plan"     // plan-context resolution (grammar, index warmup)
	SpanExecute  = "execute"  // fixpoint evaluation
	SpanDiffTest = "difftest" // root span of a differential-harness run
)

// SpanRound names the n-th fixpoint round's span; evaluators must use
// it instead of hand-rolled fmt.Sprintf so the name family stays
// greppable and catalog-checked.
func SpanRound(n int) string { return "round " + strconv.Itoa(n) }
