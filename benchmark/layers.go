package main

import (
	"math"
	"time"
)

// traced is the attribution run. It has two rounds, each on a fresh
// server: a plain round, identical to an end-to-end round, whose INFO
// deltas give the counters (taken under the workload's real
// concurrency, which the lockstep round does not have); and a lockstep
// round that records the spans. The plain round also gives the untraced
// p50 the tracing overhead is measured against.
func (r *runner) traced(seconds float64, spansPath string) (*result, error) {
	wl := r.b.wl
	nPlain := unitsFor(seconds/4, wl.unitSeconds)
	nTraced := unitsFor(seconds*3/4, wl.unitSeconds*wl.traceCost)

	us, err := r.units(0, nPlain)
	if err != nil {
		return nil, err
	}
	plain, err := r.plainRound(us)
	if err != nil {
		return nil, err
	}
	if us, err = r.units(nPlain, nTraced); err != nil {
		return nil, err
	}
	tr := &tracer{begin: time.Now()}
	st := &traceStats{lastRead: map[string]int{}}
	lock, err := r.tracedRound(us, tr, st)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return layerMetrics(plain, lock, tr, st), nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the two rounds into the per-layer metrics. Times
// are means per timed read of the lockstep round, so that they add up:
// the *.self_ms rows plus unattributed_ms equal trace.wire_ms. Counters
// are per timed operation of the plain round.
func layerMetrics(plain, lock *roundResult, tr *tracer, st *traceStats) *result {
	res := newResult(perLayer)
	res.Attempted = plain.attempted + lock.attempted
	res.Failed = plain.failed + lock.failed
	res.Correct = res.Failed == 0
	for _, rr := range []*roundResult{plain, lock} {
		if res.note == "" && rr.firstErr != nil {
			res.note = "first failure: " + rr.firstErr.Error()
		}
	}

	// Spans, grouped by request (they were appended in request order).
	selfSum := map[string]float64{}
	var wireSum, unattrSum, journalSum float64
	var shares []float64
	reads, writes := 0, 0
	for i := 0; i < len(tr.spans); {
		j := i
		for j < len(tr.spans) && tr.spans[j].Req == tr.spans[i].Req {
			j++
		}
		req := tr.spans[i:j]
		self, unattr := selfTimes(req)
		wire := req[0].ms() // the wire span is recorded first
		switch tr.kinds[req[0].Req-1] {
		case opRead:
			reads++
			wireSum += wire
			unattrSum += unattr
			shares = append(shares, ratio(math.Abs(unattr), wire))
			for name, v := range self {
				selfSum[name] += v
			}
		case opWrite:
			writes++
			journalSum += self[spanJournal]
		}
		i = j
	}
	n := float64(reads)
	res.set("trace.wire_ms", ratio(wireSum, n), reads)
	res.set("unattributed_ms", ratio(unattrSum, n), reads)
	res.set("unattributed_share", median(shares), reads)
	res.set("resp.self_ms", ratio(selfSum[spanWire], n), reads)
	res.set("gdb.self_ms", ratio(selfSum[spanQuery], n), reads)
	res.set("cypher.parse_ms", ratio(selfSum[spanParse], n), reads)
	res.set("plan.build_ms", ratio(selfSum[spanBuild], n), reads)
	res.set("plan.exec_self_ms", ratio(selfSum[spanExecute], n), reads)
	res.set("cfpq.eval_ms", ratio(selfSum[spanEval], n), reads)
	res.set("cfpq.eval_share", ratio(selfSum[spanEval], wireSum), reads)
	res.set("cfpq.rounds", ratio(float64(st.rounds), float64(st.evals)), st.evals)
	res.set("gdb.journal.self_ms", ratio(journalSum, float64(writes)), writes)
	res.set("resp.reply_bytes", ratio(float64(st.bytes), n), reads)
	res.set("plan.rows", ratio(float64(st.rows), n), reads)
	res.set("gdb.hit_read_ms", median(st.hitMS), len(st.hitMS))
	res.set("gdb.post_write_read_ms", median(st.postWriteMS), len(st.postWriteMS))
	res.set("matrix.mul_ns_per_nnz", st.mulNSPerNNZ, 1)

	// The plain round: latencies under the workload's own concurrency
	// and the server's counters.
	tracedReads, plainWrites := latencies(lock.samples, opRead), latencies(plain.samples, opWrite)
	res.set("trace.overhead_ms", median(tracedReads)-median(latencies(plain.samples, opRead)), len(tracedReads))
	res.set("gdb.write_p50_ms", median(plainWrites), len(plainWrites))

	info := func(k string) float64 { return float64(plain.info[k]) }
	ops := len(plain.samples)
	perOp := func(name, key string) { res.set(name, ratio(info(key), float64(ops)), ops) }
	res.set("store.cache.hit_ratio", ratio(info("cache.hits"), info("cache.hits")+info("cache.misses")), ops)
	perOp("store.cache.evictions", "cache.evictions")
	perOp("store.cache.invalidations", "cache.invalidations")
	res.set("batch.coalesced_share", ratio(info("batch.members")-info("batch.solo"), info("gdb.queries")), ops)
	perOp("matrix.mul_ops", "kernel.mul.ops")
	perOp("matrix.mul_nnz", "kernel.mul.nnz")
	perOp("matrix.add_ops", "kernel.add.ops")
	res.set("gdb.journal.bytes_per_write", ratio(info("dur.journal.bytes"), info("gdb.writes")), len(plainWrites))
	return res
}
