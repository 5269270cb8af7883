package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("re-registering a counter must return the same instrument")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5126 {
		t.Fatalf("count=%d sum=%d, want 5/5126", h.Count(), h.Sum())
	}
	s := r.Snapshot()
	want := Snapshot{
		"lat.count":  5,
		"lat.sum":    5126,
		"lat.le.10":  2, // 5, 10
		"lat.le.100": 2, // 11, 100
		"lat.le.inf": 1, // 5000
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("snapshot = %v, want %v", s, want)
	}
}

func TestSnapshotSubAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	d := r.Counter("y")
	c.Add(3)
	before := r.Snapshot()
	c.Add(2)
	d.Add(7)
	diff := r.Snapshot().Sub(before)
	if !reflect.DeepEqual(diff, Snapshot{"x": 2, "y": 7}) {
		t.Fatalf("diff = %v", diff)
	}
	// INFO renders a snapshot in Keys order.
	if keys := diff.Keys(); !reflect.DeepEqual(keys, []string{"x", "y"}) {
		t.Fatalf("keys = %v, want [x y]", keys)
	}
}

func TestSetEnabledGatesUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gated")
	h := r.Histogram("gh", SizeBuckets)
	g := r.Gauge("gg")
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c.Inc()
	h.Observe(9)
	g.Set(5)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Fatal("updates must be dropped while disabled")
	}
	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("updates must resume once re-enabled")
	}
}

// TestConcurrentUpdates is the race-detector test required by the
// issue: hammer instruments from many goroutines while snapshotting.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc.c")
	g := r.Gauge("conc.g")
	h := r.Histogram("conc.h", SizeBuckets)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 100))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var bucketTotal int64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != h.Count() {
		t.Fatalf("bucket total %d != count %d", bucketTotal, h.Count())
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("query", time.Now())
	tr.AddSpan("parse", 5*time.Millisecond)
	s := tr.Start("execute")
	tr.Add(KeyMulOps, 2)
	inner := tr.Start("round")
	tr.Add(KeyMulOps, 3)
	tr.Add(KeyMulNNZ, 40)
	inner.End()
	tr.Add(KeyAddOps, 1)
	s.End()
	tr.Close()

	root := tr.Root()
	if root.Name != "query" || len(root.Children) != 2 {
		t.Fatalf("root shape wrong: %+v", root)
	}
	if root.Children[0].Name != "parse" || root.Children[0].Dur != 5*time.Millisecond {
		t.Fatalf("parse span wrong: %+v", root.Children[0])
	}
	ex := root.Children[1]
	if ex.Name != "execute" || len(ex.Children) != 1 || ex.Children[0].Name != "round" {
		t.Fatalf("execute span wrong: %+v", ex)
	}
	// Counter attribution: deltas land on the innermost open span.
	if ex.Counters[KeyMulOps] != 2 || ex.Counters[KeyAddOps] != 1 {
		t.Fatalf("execute counters wrong: %v", ex.Counters)
	}
	if ex.Children[0].Counters[KeyMulOps] != 3 || ex.Children[0].Counters[KeyMulNNZ] != 40 {
		t.Fatalf("round counters wrong: %v", ex.Children[0].Counters)
	}
	// Subtree totals aggregate children.
	if got := root.Total(KeyMulOps); got != 5 {
		t.Fatalf("Total(mul.ops) = %d, want 5", got)
	}
	if root.Dur <= 0 || ex.Dur <= 0 {
		t.Fatal("Close must record durations for open spans")
	}
	lines := tr.Render()
	if len(lines) != 4 {
		t.Fatalf("render lines = %d, want 4: %v", len(lines), lines)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	s := tr.Start("x")
	s.End()
	tr.Add("k", 1)
	tr.AddSpan("y", time.Millisecond)
	tr.Close()
	if tr.Root() != nil || tr.Render() != nil {
		t.Fatal("nil trace must yield nil root/render")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowLogEntry{Query: string(rune('a' + i)), Status: "slow"})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	es := l.Entries(0)
	if len(es) != 3 || es[0].Query != "e" || es[1].Query != "d" || es[2].Query != "c" {
		t.Fatalf("entries wrong: %+v", es)
	}
	if es[0].ID != 4 {
		t.Fatalf("newest id = %d, want 4 (ids survive eviction)", es[0].ID)
	}
	if got := l.Entries(2); len(got) != 2 || got[0].Query != "e" {
		t.Fatalf("Entries(2) wrong: %+v", got)
	}
	l.Reset()
	if l.Len() != 0 || len(l.Entries(0)) != 0 {
		t.Fatal("reset must clear entries")
	}
	if id := l.Add(SlowLogEntry{}); id != 5 {
		t.Fatalf("ids must keep increasing after reset, got %d", id)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h.c").Add(9)
	r.Gauge("h.g").Set(-2)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["h.c"] != 9 || got["h.g"] != -2 {
		t.Fatalf("endpoint body wrong: %v", got)
	}
}

// TestInstrumentLayerDiscipline mirrors the obscatalog analyzer's
// layer check at runtime: every name registered in the default
// catalog must start with a declared Layer* prefix, or the RESP INFO
// command would silently file it under the wrong section.
func TestInstrumentLayerDiscipline(t *testing.T) {
	layers := map[string]bool{
		LayerKernel:   true,
		LayerGovernor: true,
		LayerGdb:      true,
		LayerDur:      true,
		LayerCache:    true,
		LayerResp:     true,
		LayerRepl:     true,
	}
	snap := Default.Snapshot()
	if len(snap) == 0 {
		t.Fatal("default registry is empty — instruments.go no longer registers at init?")
	}
	for _, key := range snap.Keys() {
		prefix, _, _ := strings.Cut(key, ".")
		if !layers[prefix] {
			t.Errorf("instrument %q has undeclared layer %q — add a Layer* constant or rename it", key, prefix)
		}
	}
}
