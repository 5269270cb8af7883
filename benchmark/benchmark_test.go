package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mscfpq/internal/gdb"
	"mscfpq/internal/resp"
)

// tinyWorkloads are the four workloads on graphs small enough for the
// package test; names and mechanics are those of the real ones.
func tinyWorkloads() []*workload {
	return []*workload{
		sparseSweep("core", 0.3, 5, 3),
		denseCold("go-hierarchy", 0.004),
		denseScan("go-hierarchy", 0.004),
		mixedRW("core", 0.3, 16, 40, 4),
	}
}

// inProcess starts a durable server inside the test process, configured
// like the gsql-server subprocess.
func inProcess(t *testing.T) func(context.Context) (*target, error) {
	return func(context.Context) (*target, error) {
		db, err := gdb.Open(t.TempDir())
		if err != nil {
			return nil, err
		}
		db.SetPolicy(gdb.Policy{CacheMaxBytes: cacheBytes, BatchWindow: batchWindow})
		srv := resp.NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve() // returns nil once Close shut the listener
		}()
		return &target{addr: addr.String(), pid: os.Getpid(), stop: func() {
			srv.Close()
			<-done
			_ = db.Close() // test data dir; nothing to recover from it
		}}, nil
	}
}

func tinyRunner(t *testing.T, wl *workload, seed int64) *runner {
	t.Helper()
	b, err := wl.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return &runner{ctx: context.Background(), b: b, scratch: t.TempDir(), start: inProcess(t)}
}

func resultNames(res *result) map[string]bool {
	out := map[string]bool{}
	for name := range res.Metrics {
		out[name] = true
	}
	return out
}

// TestRunsReportEveryMetric drives every workload end to end and traced
// against an in-process server: every reply must check out, and the
// metrics a run reports must be exactly the spec table's.
func TestRunsReportEveryMetric(t *testing.T) {
	for _, wl := range tinyWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			r := tinyRunner(t, wl, 7)
			for _, mode := range []struct {
				specs []metricSpec
				run   func() (*result, error)
			}{
				{endToEnd, func() (*result, error) { return r.endToEnd(1) }},
				{perLayer, func() (*result, error) { return r.traced(1, "") }},
			} {
				res, err := mode.run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.note)
				}
				want := map[string]bool{}
				for _, m := range mode.specs {
					want[m.Name] = true
				}
				if got := resultNames(res); !reflect.DeepEqual(got, want) {
					t.Errorf("metrics reported %v, spec table has %v", got, want)
				}
			}
		})
	}
}

// TestTracedLayersAddUp checks on a real traced round that self times
// plus the unattributed remainder equal the wire span of every request,
// and that the layer metrics behave as the workloads intend.
func TestTracedLayersAddUp(t *testing.T) {
	r := tinyRunner(t, tinyWorkloads()[3], 7) // mixed-rw: reads, writes, hits and misses
	us, err := r.units(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	st := &traceStats{lastRead: map[string]int{}}
	rr, err := r.tracedRound(us, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if rr.failed != 0 {
		t.Fatal(rr.firstErr)
	}
	byReq := map[int][]span{}
	for _, s := range tr.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	if len(byReq) != rr.attempted {
		t.Fatalf("%d traced requests, %d attempted", len(byReq), rr.attempted)
	}
	for req, spans := range byReq {
		self, unattributed := selfTimes(spans)
		sum := unattributed
		for _, v := range self {
			sum += v
		}
		if wire := spans[0].ms(); spans[0].Name != spanWire || math.Abs(sum-wire) > 1e-9 {
			t.Fatalf("request %d: selfs + unattributed = %v, wire = %v", req, sum, wire)
		}
	}
	if len(st.hitMS) == 0 || len(st.postWriteMS) == 0 {
		t.Errorf("mixed-rw traced %d cache hits and %d post-write reads, want both", len(st.hitMS), len(st.postWriteMS))
	}
}

// TestWrongAnswerFails makes sure a reply that differs from the
// reference is counted as a failed operation, not timed as a success.
func TestWrongAnswerFails(t *testing.T) {
	r := tinyRunner(t, tinyWorkloads()[0], 7)
	us, err := r.units(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	us[0].conns[0][1].want.sum++ // same row count, different rows
	rr, err := r.plainRound(us)
	if err != nil {
		t.Fatal(err)
	}
	if rr.failed != 1 || rr.attempted != len(us[0].conns[0]) || len(rr.samples) != rr.attempted-1 {
		t.Fatalf("attempted %d, failed %d, samples %d", rr.attempted, rr.failed, len(rr.samples))
	}
}

// TestSameSeedSameStreams: the request streams are a function of the
// seed alone.
func TestSameSeedSameStreams(t *testing.T) {
	stream := func(wl *workload, seed int64) [][]string {
		b, err := wl.build(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for i := 0; i < 4; i++ {
			u, err := wl.unit(b, i, i == 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, script := range append([][]op{u.prelude}, u.conns...) {
				for _, o := range script {
					out = append(out, o.args)
				}
			}
		}
		return out
	}
	for i, wl := range tinyWorkloads() {
		a, b, c := stream(wl, 11), stream(tinyWorkloads()[i], 11), stream(wl, 12)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different streams", wl.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same stream", wl.name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(xs[:199], 0.95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v, %v; want 190 with only nine samples beyond", v, ok)
	}
	if v, ok := percentile(xs[:21], 0.50); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %v, %v; want 11 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing was reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	if sp, _ := spread(xs); sp != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", sp)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value were reported")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(name string, dur float64) span {
		return span{Req: 1, Name: name, Parent: spanParent[name], EndNS: int64(dur * 1e6)}
	}
	// Children fit inside their parents: nothing is left over.
	self, unattributed := selfTimes([]span{
		ms(spanWire, 10), ms(spanQuery, 8), ms(spanParse, 1), ms(spanBuild, 2), ms(spanExecute, 4), ms(spanEval, 3),
	})
	want := map[string]float64{spanWire: 2, spanQuery: 1, spanParse: 1, spanBuild: 2, spanExecute: 1, spanEval: 3}
	if !reflect.DeepEqual(self, want) || unattributed != 0 {
		t.Errorf("self = %v, unattributed = %v; want %v, 0", self, unattributed, want)
	}
	// The mirror's fixpoint took longer than the mirror's whole execute:
	// execute keeps no self time and the excess is unattributed.
	self, unattributed = selfTimes([]span{
		ms(spanWire, 10), ms(spanQuery, 8), ms(spanParse, 1), ms(spanBuild, 2), ms(spanExecute, 4), ms(spanEval, 5),
	})
	if self[spanExecute] != 0 || self[spanEval] != 5 || unattributed != -1 {
		t.Errorf("execute self = %v, eval self = %v, unattributed = %v; want 0, 5, -1", self[spanExecute], self[spanEval], unattributed)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		m      metricSpec
		change []float64
		want   string
	}{
		{lower, []float64{104, 105, 103, 104}, "within bound"},
		{lower, []float64{120, 121, 119, 120}, "REGRESSED"},
		{lower, []float64{80, 81, 79, 80}, "improved"},
		{higher, []float64{80, 81, 79, 80}, "REGRESSED"},
		{lower, []float64{80, 120, 100, 140}, "unresolved"}, // spreads wider than the bound
		{lower, []float64{100}, "unresolved"},               // one set has no spread
	} {
		if _, got := verdict(c.m, steady, c.change); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, steady, c.change, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command's tables the
// same: workload names and reasons, metric names, units, directions and
// bounds, and the run length.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(file.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if file.Workloads[i].Name != wl.name || file.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", wl.name, len(wl.why))
		}
	}
	for i, tiny := range tinyWorkloads() {
		if tiny.name != workloads[i].name {
			t.Errorf("tiny workload %d is %q, the real one %q", i, tiny.name, workloads[i].name)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n command        %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n command        %v", file.PerLayer, perLayer)
	}
	setup := false
	for _, m := range endToEnd {
		setup = setup || m == metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
