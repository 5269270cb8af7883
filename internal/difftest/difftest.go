// Package difftest is the differential correctness harness of the
// module (see TESTING.md): it drives every CFPQ evaluator and the RPQ
// path against the independent reference oracles of internal/oracle
// on instances produced by internal/gen, and checks the metamorphic
// invariants the paper's algorithms promise. The checks are plain
// functions returning errors so the same harness serves the standing
// test suite, the slow-mode sweep (-tags=slow), and ad-hoc repro runs.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/gen"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
	"mscfpq/internal/oracle"
	"mscfpq/internal/rpq"
	"mscfpq/internal/store"
)

// srcVector materializes a source id list as a vector over g's vertices.
func srcVector(g *graph.Graph, sources []int) *matrix.Vector {
	v := matrix.NewVector(g.NumVertices())
	for _, s := range sources {
		if s >= 0 && s < g.NumVertices() {
			v.Set(s)
		}
	}
	return v
}

func pairsEqual(got, want [][2]int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func pairsErr(engine string, got, want [][2]int) error {
	return fmt.Errorf("%s: got %v, want %v", engine, got, want)
}

// CheckCFPQ runs all six CFPQ evaluators on the instance and compares
// them against the oracle: the all-pairs engines on every nonterminal
// relation, the multiple-source engines on the source-restricted start
// relation (the paper's central claim).
func CheckCFPQ(inst gen.Instance) error {
	ref := oracle.CFPQ(inst.G, inst.W)
	src := srcVector(inst.G, inst.Sources)
	wantMS := ref.StartPairsFrom(inst.Sources)

	// All-pairs evaluators, checked relation by relation.
	allPairs := []struct {
		name string
		run  func() (*cfpq.Result, error)
	}{
		{"AllPairs", func() (*cfpq.Result, error) { return cfpq.AllPairs(inst.G, inst.W) }},
		{"AllPairsSemiNaive", func() (*cfpq.Result, error) { return cfpq.AllPairsSemiNaive(inst.G, inst.W) }},
		{"Worklist", func() (*cfpq.Result, error) { return cfpq.Worklist(inst.G, inst.W) }},
		{"SinglePath", func() (*cfpq.Result, error) {
			r, err := cfpq.SinglePath(inst.G, inst.W)
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		}},
	}
	for _, e := range allPairs {
		r, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		for a := 0; a < inst.W.NumNonterms(); a++ {
			if got, want := r.T[a].Pairs(), ref.Pairs(a); !pairsEqual(got, want) {
				return pairsErr(fmt.Sprintf("%s relation %s", e.name, inst.W.Nonterms[a]), got, want)
			}
		}
	}

	// Multiple-source evaluators, checked on the restricted answer.
	multiSource := []struct {
		name string
		run  func() (*matrix.Bool, error)
	}{
		{"MultiSource", func() (*matrix.Bool, error) {
			r, err := cfpq.MultiSource(inst.G, inst.W, src)
			if err != nil {
				return nil, err
			}
			return r.Answer(), nil
		}},
		{"MultiSourceSinglePath", func() (*matrix.Bool, error) {
			r, err := cfpq.MultiSourceSinglePath(inst.G, inst.W, src)
			if err != nil {
				return nil, err
			}
			return r.Answer(), nil
		}},
		{"Index.MultiSourceSmart", func() (*matrix.Bool, error) {
			idx, err := cfpq.NewIndex(inst.G, inst.W)
			if err != nil {
				return nil, err
			}
			r, err := idx.MultiSourceSmart(src)
			if err != nil {
				return nil, err
			}
			return r.Answer(), nil
		}},
		{"WorklistMultiSource", func() (*matrix.Bool, error) {
			return cfpq.WorklistMultiSource(inst.G, inst.W, src)
		}},
	}
	for _, e := range multiSource {
		m, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		if got := m.Pairs(); !pairsEqual(got, wantMS) {
			return pairsErr(e.name, got, wantMS)
		}
	}
	return nil
}

// evalAlgorithms is every concrete algorithm option of the unified
// Eval entry point.
var evalAlgorithms = []exec.Algorithm{
	exec.AlgMatrix, exec.AlgSemiNaive, exec.AlgWorklist,
	exec.AlgMultiSource, exec.AlgSinglePath, exec.AlgMSSinglePath,
}

// CheckEval drives the unified Eval entry point with every algorithm
// option against the oracle: all six must return the identical
// source-restricted answer, the all-pairs-capable ones must also agree
// on the unrestricted query, AlgAuto must resolve by query shape, and
// observability must be inert — attaching a trace and disabling the
// metrics registry never changes answers.
func CheckEval(inst gen.Instance) error {
	ref := oracle.CFPQ(inst.G, inst.W)
	src := srcVector(inst.G, inst.Sources)
	wantMS := ref.StartPairsFrom(inst.Sources)
	wantAll := ref.Pairs(inst.W.Start)

	for _, alg := range evalAlgorithms {
		res, err := cfpq.Eval(inst.G, inst.W, src, cfpq.WithAlgorithm(alg))
		if err != nil {
			return fmt.Errorf("Eval %v: %v", alg, err)
		}
		if got := res.Pairs(); !pairsEqual(got, wantMS) {
			return pairsErr(fmt.Sprintf("Eval %v", alg), got, wantMS)
		}
		if st := res.Stats(); st.Algorithm != alg || st.Answers != len(res.Pairs()) {
			return fmt.Errorf("Eval %v: inconsistent stats %+v", alg, st)
		}
		// Observability must never change answers: rerun with a trace
		// attached and the metrics registry disabled.
		obs.SetEnabled(false)
		traced, err := cfpq.Eval(inst.G, inst.W, src,
			cfpq.WithAlgorithm(alg), cfpq.WithTrace(obs.NewTrace(obs.SpanDiffTest)))
		obs.SetEnabled(true)
		if err != nil {
			return fmt.Errorf("Eval %v traced: %v", alg, err)
		}
		if got := traced.Pairs(); !pairsEqual(got, wantMS) {
			return pairsErr(fmt.Sprintf("Eval %v traced/metrics-off", alg), got, wantMS)
		}
	}

	// The all-pairs-capable algorithms also answer the unrestricted query.
	for _, alg := range []exec.Algorithm{
		exec.AlgMatrix, exec.AlgSemiNaive, exec.AlgWorklist, exec.AlgSinglePath} {
		res, err := cfpq.Eval(inst.G, inst.W, nil, cfpq.WithAlgorithm(alg))
		if err != nil {
			return fmt.Errorf("Eval %v (all pairs): %v", alg, err)
		}
		if got := res.Pairs(); !pairsEqual(got, wantAll) {
			return pairsErr(fmt.Sprintf("Eval %v (all pairs)", alg), got, wantAll)
		}
	}

	// AlgAuto resolves by query shape: multiple-source with a source
	// set, all-pairs without.
	auto, err := cfpq.Eval(inst.G, inst.W, src)
	if err != nil {
		return fmt.Errorf("Eval auto (src): %v", err)
	}
	if alg := auto.Stats().Algorithm; alg != exec.AlgMultiSource {
		return fmt.Errorf("Eval auto with sources resolved to %v", alg)
	}
	if got := auto.Pairs(); !pairsEqual(got, wantMS) {
		return pairsErr("Eval auto (src)", got, wantMS)
	}
	auto, err = cfpq.Eval(inst.G, inst.W, nil)
	if err != nil {
		return fmt.Errorf("Eval auto (all pairs): %v", err)
	}
	if alg := auto.Stats().Algorithm; alg != exec.AlgMatrix {
		return fmt.Errorf("Eval auto without sources resolved to %v", alg)
	}
	if got := auto.Pairs(); !pairsEqual(got, wantAll) {
		return pairsErr("Eval auto (all pairs)", got, wantAll)
	}

	// The single-path options expose witnesses through the unified
	// interface, and the witnesses replay to real accepted paths.
	sp, err := cfpq.Eval(inst.G, inst.W, src, cfpq.WithAlgorithm(exec.AlgMSSinglePath))
	if err != nil {
		return fmt.Errorf("Eval mssinglepath: %v", err)
	}
	pr, ok := sp.(cfpq.PathEvalResult)
	if !ok {
		return fmt.Errorf("Eval mssinglepath result does not implement PathEvalResult")
	}
	if err := replayPairs(inst, pr.Pairs(), pr.Path); err != nil {
		return fmt.Errorf("Eval mssinglepath: %v", err)
	}
	return nil
}

// CheckRPQ compares the one RPQ path (rpq.Eval: the regex compiled by
// the path-pattern compiler and run by the multiple-source CFPQ driver)
// against the relation-algebra oracle. It then asks an Algorithm 3 index
// on the compiled grammar for the sources in two disjoint chunks, so the
// second query starts from the first one's processed sources, and
// checks each chunk's answer against the oracle too.
func CheckRPQ(g *graph.Graph, query string, sources []int) error {
	re, err := rpq.ParseRegex(query)
	if err != nil {
		return fmt.Errorf("parse %q: %v", query, err)
	}
	want := oracle.RPQ(g, re, sources)
	src := srcVector(g, sources)
	m, err := rpq.Eval(g, query, src)
	if err != nil {
		return fmt.Errorf("rpq.Eval on %q: %v", query, err)
	}
	if got := m.Pairs(); !pairsEqual(got, want) {
		return pairsErr(fmt.Sprintf("rpq.Eval on %q", query), got, want)
	}

	w, err := rpq.Compile(query)
	if err != nil {
		return fmt.Errorf("compile %q: %v", query, err)
	}
	idx, err := cfpq.NewIndex(g, w)
	if err != nil {
		return err
	}
	ids := src.Ints()
	for c, chunk := range [][]int{ids[:len(ids)/2], ids[len(ids)/2:]} {
		r, err := idx.MultiSourceSmart(srcVector(g, chunk))
		if err != nil {
			return fmt.Errorf("index chunk %d on %q: %v", c, query, err)
		}
		if got, want := r.Answer().Pairs(), oracle.RPQ(g, re, chunk); !pairsEqual(got, want) {
			return pairsErr(fmt.Sprintf("index chunk %d on %q", c, query), got, want)
		}
	}
	return nil
}

// CheckChunkUnion asserts the paper's key invariant: splitting the
// source set into chunks and unioning the per-chunk multiple-source
// answers yields exactly the source-restricted all-pairs relation.
func CheckChunkUnion(inst gen.Instance, chunks int) error {
	if chunks < 1 {
		chunks = 1
	}
	n := inst.G.NumVertices()
	all, err := cfpq.AllPairs(inst.G, inst.W)
	if err != nil {
		return fmt.Errorf("AllPairs: %v", err)
	}
	src := srcVector(inst.G, inst.Sources)
	want := matrix.ExtractRows(all.Start(), src)

	union := matrix.NewBool(n, n)
	ids := src.Ints()
	for c := 0; c < chunks; c++ {
		chunk := matrix.NewVector(n)
		for i, v := range ids {
			if i%chunks == c {
				chunk.Set(v)
			}
		}
		r, err := cfpq.MultiSource(inst.G, inst.W, chunk)
		if err != nil {
			return fmt.Errorf("MultiSource chunk %d: %v", c, err)
		}
		matrix.AddInPlace(union, r.Answer())
	}
	if !union.Equal(want) {
		return pairsErr(fmt.Sprintf("chunk union (%d chunks)", chunks), union.Pairs(), want.Pairs())
	}
	return nil
}

// CheckIndexReuse asserts that the smart index (Algorithm 3) is
// order-independent and idempotent: processing source chunks in any
// order yields the same cache and per-query answers that match the
// oracle, and re-submitting an already-processed chunk changes nothing.
func CheckIndexReuse(inst gen.Instance, chunks int) error {
	if chunks < 1 {
		chunks = 1
	}
	ref := oracle.CFPQ(inst.G, inst.W)
	n := inst.G.NumVertices()
	ids := srcVector(inst.G, inst.Sources).Ints()
	chunkVec := func(c int) *matrix.Vector {
		v := matrix.NewVector(n)
		for i, id := range ids {
			if i%chunks == c {
				v.Set(id)
			}
		}
		return v
	}

	runOrder := func(order []int) (*cfpq.Index, error) {
		idx, err := cfpq.NewIndex(inst.G, inst.W)
		if err != nil {
			return nil, err
		}
		for _, c := range order {
			v := chunkVec(c)
			r, err := idx.MultiSourceSmart(v)
			if err != nil {
				return nil, fmt.Errorf("chunk %d: %v", c, err)
			}
			if got, want := r.Answer().Pairs(), ref.StartPairsFrom(v.Ints()); !pairsEqual(got, want) {
				return nil, pairsErr(fmt.Sprintf("index chunk %d", c), got, want)
			}
		}
		return idx, nil
	}

	fwd := make([]int, chunks)
	rev := make([]int, chunks)
	for c := 0; c < chunks; c++ {
		fwd[c] = c
		rev[c] = chunks - 1 - c
	}
	idx1, err := runOrder(fwd)
	if err != nil {
		return fmt.Errorf("forward order: %v", err)
	}
	idx2, err := runOrder(rev)
	if err != nil {
		return fmt.Errorf("reverse order: %v", err)
	}
	start := inst.W.Start
	if !idx1.ProcessedSources(start).Equal(idx2.ProcessedSources(start)) {
		return fmt.Errorf("processed sources differ across orders: %v vs %v",
			idx1.ProcessedSources(start).Ints(), idx2.ProcessedSources(start).Ints())
	}
	src := srcVector(inst.G, inst.Sources)
	r1 := matrix.ExtractRows(idx1.Relation(start), src)
	r2 := matrix.ExtractRows(idx2.Relation(start), src)
	if !r1.Equal(r2) {
		return pairsErr("index cache across orders", r1.Pairs(), r2.Pairs())
	}

	// Idempotence: replaying the full source set changes nothing.
	before := idx1.Relation(start).Clone()
	r, err := idx1.MultiSourceSmart(src)
	if err != nil {
		return fmt.Errorf("replay: %v", err)
	}
	if got, want := r.Answer().Pairs(), ref.StartPairsFrom(inst.Sources); !pairsEqual(got, want) {
		return pairsErr("index replay answer", got, want)
	}
	if !idx1.Relation(start).Equal(before) {
		return errors.New("replaying processed sources mutated the cached relation")
	}
	return nil
}

// CheckIndexMaintenance asserts the delta-maintenance contract of
// cfpq.NewIndexWarm over a write that reaches processed rows: an index
// that processed some sources is carried over to the next version of a
// store, after a Store.Update that adds a random batch of edges and
// vertex labels between existing vertices. On the new version, every
// processed row of every nonterminal of the carried index equals the
// same row of a fresh index and of the oracle; the processed sets only
// grow; the maintenance's carried sets are the prior processed sets;
// and its dirty set holds every carried row that changed.
func CheckIndexMaintenance(inst gen.Instance, rng *rand.Rand) error {
	st := store.New(inst.G)
	prior, err := cfpq.NewIndex(st.Pin().Graph(), inst.W)
	if err != nil {
		return err
	}
	n, nnt := inst.G.NumVertices(), inst.W.NumNonterms()
	for q := 0; q < 1+rng.Intn(3); q++ {
		src := matrix.NewVectorFromIndices(n, []int{rng.Intn(n), rng.Intn(n)})
		if _, err := prior.MultiSourceSmart(src); err != nil {
			return fmt.Errorf("prior query: %v", err)
		}
	}
	before := make([]*matrix.Vector, nnt)
	for a := range before {
		before[a] = prior.ProcessedSources(a)
	}

	// Half the batch starts at processed sources, so that most batches
	// reach a processed row.
	processed := before[inst.W.Start].Ints()
	pick := func() int {
		if len(processed) > 0 && rng.Intn(2) == 0 {
			return processed[rng.Intn(len(processed))]
		}
		return rng.Intn(n)
	}
	snap, err := st.Update(func(tx *store.Tx) error {
		g := tx.Graph()
		for e := 0; e < 1+rng.Intn(4); e++ {
			l := gen.DefaultLabels[rng.Intn(len(gen.DefaultLabels))]
			if rng.Intn(4) == 0 {
				g.AddVertexLabel(pick(), l)
			} else {
				g.AddEdge(pick(), l, rng.Intn(n))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g := snap.Graph()
	warm, err := cfpq.NewIndexWarm(g, inst.W, prior)
	if err != nil {
		return fmt.Errorf("NewIndexWarm: %v", err)
	}
	m := warm.Maintenance()
	if m == nil {
		return errors.New("maintenance run failed")
	}
	fresh, err := cfpq.NewIndex(g, inst.W)
	if err != nil {
		return err
	}
	x, err := fresh.Extend(inst.W)
	if err != nil {
		return err
	}
	ref := oracle.CFPQ(g, inst.W)
	for a := 0; a < nnt; a++ {
		done := warm.ProcessedSources(a)
		if !m.Carried[a].Equal(before[a]) {
			return fmt.Errorf("nonterminal %d: carried %v, prior processed %v", a, m.Carried[a].Ints(), before[a].Ints())
		}
		if lost := before[a].Clone(); lost.DiffInPlace(done) && !lost.Empty() {
			return fmt.Errorf("nonterminal %d: processed sources shrank from %v to %v", a, before[a].Ints(), done.Ints())
		}
		want := map[int][]uint32{}
		for _, p := range ref.Pairs(a) {
			want[p[0]] = append(want[p[0]], uint32(p[1]))
		}
		rows, err := x.Rows(a, done)
		if err != nil {
			return fmt.Errorf("fresh index rows: %v", err)
		}
		dirty := map[int]bool{}
		for _, s := range m.Dirty[a].Ints() {
			dirty[s] = true
		}
		rel, old := warm.Relation(a), prior.Relation(a)
		for _, s := range done.Ints() {
			got := rel.Row(s)
			if !slices.Equal(got, want[s]) {
				return fmt.Errorf("nonterminal %d source %d: carried row %v, oracle %v", a, s, got, want[s])
			}
			if f := rows.Row(s); !slices.Equal(got, f) {
				return fmt.Errorf("nonterminal %d source %d: carried row %v, fresh index %v", a, s, got, f)
			}
			if before[a].Get(s) && !dirty[s] && !slices.Equal(got, old.Row(s)) {
				return fmt.Errorf("nonterminal %d source %d: row changed from %v to %v but is not dirty", a, s, old.Row(s), got)
			}
		}
	}
	return nil
}

// maxReplayPairs caps how many witness paths one instance replays.
const maxReplayPairs = 64

// CheckPathReplay asserts single-path semantics: every answer pair of
// the single-path evaluators expands into a step sequence that is a
// real path of the graph (each step an existing edge or vertex label,
// steps contiguous from source to destination) whose label word is
// accepted by the query grammar — i.e. extracted paths replay to valid
// derivations.
func CheckPathReplay(inst gen.Instance) error {
	sp, err := cfpq.SinglePath(inst.G, inst.W)
	if err != nil {
		return fmt.Errorf("SinglePath: %v", err)
	}
	if err := replayPairs(inst, sp.Pairs(), sp.Path); err != nil {
		return fmt.Errorf("SinglePath: %v", err)
	}
	src := srcVector(inst.G, inst.Sources)
	msp, err := cfpq.MultiSourceSinglePath(inst.G, inst.W, src)
	if err != nil {
		return fmt.Errorf("MultiSourceSinglePath: %v", err)
	}
	if err := replayPairs(inst, msp.Answer().Pairs(), msp.Path); err != nil {
		return fmt.Errorf("MultiSourceSinglePath: %v", err)
	}
	return nil
}

func replayPairs(inst gen.Instance, pairs [][2]int, path func(src, dst int) ([]cfpq.PathStep, error)) error {
	for i, p := range pairs {
		if i >= maxReplayPairs {
			break
		}
		steps, err := path(p[0], p[1])
		if err != nil {
			return fmt.Errorf("pair %v: %v", p, err)
		}
		if err := replay(inst.G, p[0], p[1], steps); err != nil {
			return fmt.Errorf("pair %v: %v", p, err)
		}
		if word := cfpq.Word(steps); !inst.W.Accepts(word) {
			return fmt.Errorf("pair %v: extracted word %v not accepted by the grammar", p, word)
		}
	}
	return nil
}

// replay checks that steps form a contiguous src..dst walk over edges
// and vertex labels that actually exist in g.
func replay(g *graph.Graph, src, dst int, steps []cfpq.PathStep) error {
	at := src
	for _, s := range steps {
		if s.Src != at {
			return fmt.Errorf("step %+v starts at %d, expected %d", s, s.Src, at)
		}
		if s.VertexLabel {
			if s.Src != s.Dst {
				return fmt.Errorf("vertex-label step %+v moves", s)
			}
			if !g.HasVertexLabel(s.Src, s.Label) {
				return fmt.Errorf("step %+v: vertex %d lacks label %q", s, s.Src, s.Label)
			}
		} else if !g.HasEdge(s.Src, s.Label, s.Dst) {
			return fmt.Errorf("step %+v: edge missing from graph", s)
		}
		at = s.Dst
	}
	if at != dst {
		return fmt.Errorf("path ends at %d, expected %d", at, dst)
	}
	return nil
}

// CheckGoverned asserts abort soundness: a budgeted or cancelled query
// either fails with the governance error or returns the exact answer —
// never a silently wrong partial result. It also verifies the index's
// abort rule at every budget up to the work of the whole run.
func CheckGoverned(inst gen.Instance, budget int64) error {
	ref := oracle.CFPQ(inst.G, inst.W)
	src := srcVector(inst.G, inst.Sources)
	wantMS := ref.StartPairsFrom(inst.Sources)

	allowed := func(err error) bool {
		return errors.Is(err, exec.ErrBudget) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	runs := []struct {
		name string
		run  func(opts ...cfpq.Option) (*matrix.Bool, error)
	}{
		{"MultiSource", func(opts ...cfpq.Option) (*matrix.Bool, error) {
			r, err := cfpq.MultiSource(inst.G, inst.W, src, opts...)
			if err != nil {
				return nil, err
			}
			return r.Answer(), nil
		}},
		{"MultiSourceSinglePath", func(opts ...cfpq.Option) (*matrix.Bool, error) {
			r, err := cfpq.MultiSourceSinglePath(inst.G, inst.W, src, opts...)
			if err != nil {
				return nil, err
			}
			return r.Answer(), nil
		}},
		{"AllPairs", func(opts ...cfpq.Option) (*matrix.Bool, error) {
			r, err := cfpq.AllPairs(inst.G, inst.W, opts...)
			if err != nil {
				return nil, err
			}
			return matrix.ExtractRows(r.Start(), src), nil
		}},
	}
	for _, e := range runs {
		m, err := e.run(cfpq.WithBudget(budget))
		switch {
		case err != nil && !allowed(err):
			return fmt.Errorf("%s with budget %d: unexpected error %v", e.name, budget, err)
		case err == nil:
			if got := m.Pairs(); !pairsEqual(got, wantMS) {
				return pairsErr(fmt.Sprintf("%s within budget %d", e.name, budget), got, wantMS)
			}
		}
		// A pre-cancelled context must abort or still answer exactly.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m, err = e.run(cfpq.WithContext(ctx))
		switch {
		case err != nil && !allowed(err):
			return fmt.Errorf("%s with cancelled context: unexpected error %v", e.name, err)
		case err == nil:
			if got := m.Pairs(); !pairsEqual(got, wantMS) {
				return pairsErr(e.name+" with cancelled context", got, wantMS)
			}
		}
	}

	// Index abort rule: a smart query aborted at any point keeps the
	// facts it derived (all true) but claims no source, so the cache
	// still answers exactly. The index is primed with half the sources
	// so the aborted run also starts from committed claims.
	ap, err := cfpq.AllPairs(inst.G, inst.W)
	if err != nil {
		return err
	}
	half := matrix.NewVectorFromIndices(src.Size(), src.Ints()[:src.NVals()/2])
	primed := func() (*cfpq.Index, error) {
		idx, err := cfpq.NewIndex(inst.G, inst.W)
		if err != nil {
			return nil, err
		}
		_, err = idx.MultiSourceSmart(half)
		return idx, err
	}
	abortAt := func(what string, opt cfpq.Option) error {
		idx, err := primed()
		if err != nil {
			return err
		}
		claimed := make([]*matrix.Vector, inst.W.NumNonterms())
		for a := range claimed {
			claimed[a] = idx.ProcessedSources(a)
		}
		if _, err := idx.MultiSourceSmart(src, opt); err == nil {
			return nil // ran to completion; the ordinary checks cover it
		} else if !allowed(err) {
			return fmt.Errorf("index %s: unexpected error %v", what, err)
		}
		for a := range claimed {
			if !idx.ProcessedSources(a).Equal(claimed[a]) {
				return fmt.Errorf("index aborted %s claimed sources for %s: %v, had %v", what,
					inst.W.Nonterms[a], idx.ProcessedSources(a).Ints(), claimed[a].Ints())
			}
			if extra := matrix.Sub(idx.Relation(a), ap.T[a]); !extra.Empty() {
				return fmt.Errorf("index aborted %s kept false facts for %s: %v", what, inst.W.Nonterms[a], extra.Pairs())
			}
		}
		r, err := idx.MultiSourceSmart(src)
		if err != nil {
			return fmt.Errorf("index after abort %s: %v", what, err)
		}
		if got := r.Answer().Pairs(); !pairsEqual(got, wantMS) {
			return pairsErr("index after query aborted "+what, got, wantMS)
		}
		return nil
	}
	idx, err := primed()
	if err != nil {
		return err
	}
	whole, err := idx.MultiSourceSmart(src)
	if err != nil {
		return err
	}
	for b := int64(1); b <= whole.Work; b++ {
		if err := abortAt(fmt.Sprintf("with budget %d", b), cfpq.WithBudget(b)); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return abortAt("with cancelled context", cfpq.WithContext(ctx))
}

// WriteRepro dumps the instance to a fresh temp directory (graph,
// grammar, sources, seed) so a failure can be replayed outside the
// harness; it returns the directory path.
func WriteRepro(inst gen.Instance) (string, error) {
	dir, err := os.MkdirTemp("", "mscfpq-difftest-")
	if err != nil {
		return "", err
	}
	if err := graph.SaveFile(filepath.Join(dir, "graph.txt"), inst.G); err != nil {
		return dir, err
	}
	if err := os.WriteFile(filepath.Join(dir, "grammar.txt"), []byte(inst.Grammar.String()+"\n"), 0o644); err != nil {
		return dir, err
	}
	srcLine := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(inst.Sources)), " "), "[]")
	meta := fmt.Sprintf("seed %d\nkind %v\nsources %s\n", inst.Seed, inst.Kind, srcLine)
	if err := os.WriteFile(filepath.Join(dir, "instance.txt"), []byte(meta), 0o644); err != nil {
		return dir, err
	}
	return dir, nil
}

// Minimize greedily shrinks a failing instance while the fails
// predicate keeps reporting failure: it tries dropping edges, vertex
// labels, and sources one at a time until a fixpoint. The grammar is
// left untouched. Intended for failure reporting only — it reruns the
// predicate many times.
func Minimize(inst gen.Instance, fails func(gen.Instance) bool) gen.Instance {
	type edge struct {
		src, dst int
		label    string
	}
	type vlabel struct {
		v     int
		label string
	}
	edges := []edge{}
	inst.G.Edges(func(src int, label string, dst int) bool {
		edges = append(edges, edge{src, dst, label})
		return true
	})
	var vlabels []vlabel
	for _, l := range inst.G.VertexLabels() {
		for _, v := range inst.G.VertexSet(l).Ints() {
			vlabels = append(vlabels, vlabel{v, l})
		}
	}
	sources := append([]int(nil), inst.Sources...)
	n := inst.G.NumVertices()

	build := func(es []edge, vls []vlabel, srcs []int) gen.Instance {
		g := graph.New(n)
		for _, e := range es {
			g.AddEdge(e.src, e.label, e.dst)
		}
		for _, vl := range vls {
			g.AddVertexLabel(vl.v, vl.label)
		}
		out := inst
		out.G = g
		out.Sources = srcs
		return out
	}

	for again := true; again; {
		again = false
		for i := 0; i < len(edges); i++ {
			trial := append(append([]edge{}, edges[:i]...), edges[i+1:]...)
			if fails(build(trial, vlabels, sources)) {
				edges, again = trial, true
				i--
			}
		}
		for i := 0; i < len(vlabels); i++ {
			trial := append(append([]vlabel{}, vlabels[:i]...), vlabels[i+1:]...)
			if fails(build(edges, trial, sources)) {
				vlabels, again = trial, true
				i--
			}
		}
		for i := 0; i < len(sources); i++ {
			trial := append(append([]int{}, sources[:i]...), sources[i+1:]...)
			if fails(build(edges, vlabels, trial)) {
				sources, again = trial, true
				i--
			}
		}
	}
	return build(edges, vlabels, sources)
}
